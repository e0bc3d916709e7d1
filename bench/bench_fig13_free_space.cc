/**
 * @file
 * Reproduces Fig. 13 / inaccuracies I1 and I2: the design-rule
 * free-track scan finds no room for a new bitline in either the MAT
 * (I1) or the SA region (I2), on any chip; removing an existing wire
 * restores exactly one track, confirming the scan's sensitivity.
 */

#include <iostream>

#include "common/table.hh"
#include "common/telemetry.hh"
#include "fab/mat.hh"
#include "fab/sa_region.hh"
#include "layout/design_rules.hh"

int
main()
{
    hifi::telemetry::reportPeakRssAtExit();
    using namespace hifi;
    using common::Table;

    std::cout << "Fig. 13: free bitline tracks under design rules "
                 "(I1: MAT, I2: SA region)\n\n";

    Table t({"chip", "BL pitch", "MAT tracks (I1)",
             "SA tracks (I2)", "control (wire removed)"});
    for (const auto &chip : models::allChips()) {
        layout::DesignRules rules;
        const double spacing = chip.blPitchNm - chip.blWidthNm;
        rules.rule(layout::Layer::Metal1) = {chip.blWidthNm, spacing};

        // The scan covers the bitline band (between the outermost
        // bitlines); the generator's dicing margins are not part of
        // the packed array the paper's Fig. 13 refers to.
        auto metal_band = [](const layout::Cell &cell) {
            common::Rect band;
            for (const auto &s : cell.flatten())
                if (s.layer == layout::Layer::Metal1)
                    band = band.unite(s.rect);
            return band;
        };

        // MAT slice.
        const auto mat =
            fab::buildMatSlice(fab::MatSpec::fromChip(chip, 10, 8));
        const size_t mat_tracks = rules.freeTracks(
            *mat, layout::Layer::Metal1, metal_band(*mat));

        // SA region slice.
        fab::SaRegionTruth truth;
        const auto sa = fab::buildSaRegion(
            fab::SaRegionSpec::fromChip(chip, 5), truth);
        const size_t sa_tracks = rules.freeTracks(
            *sa, layout::Layer::Metal1, metal_band(*sa));

        // Control: drop one bitline from the MAT; a track must appear.
        auto control = std::make_shared<layout::Cell>("control");
        size_t kept = 0;
        for (const auto &s : mat->flatten()) {
            if (s.layer == layout::Layer::Metal1 && kept++ == 5)
                continue; // remove one wire
            layout::Shape copy = s;
            control->addShape(std::move(copy));
        }
        const size_t control_tracks = rules.freeTracks(
            *control, layout::Layer::Metal1, metal_band(*mat));

        t.addRow({chip.id, Table::num(chip.blPitchNm, 0) + " nm",
                  std::to_string(mat_tracks),
                  std::to_string(sa_tracks),
                  std::to_string(control_tracks)});
    }
    t.print(std::cout);

    std::cout << "\nConclusion (paper Section VI-B): implementing a "
                 "dual-contact cell or any extra bitline requires\n"
                 "doubling the MAT/SA region width - there is no free "
                 "space on any of the six chips.\n";
    return 0;
}
