#include "fab/sa_region.hh"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hh"
#include "common/telemetry.hh"

namespace hifi
{
namespace fab
{

using common::Rect;
using layout::Layer;
using models::Role;
using models::Topology;

namespace
{

constexpr double kActiveExt = 30.0;  ///< source/drain extension (nm)
constexpr double kZoneGap = 100.0;   ///< gap between element zones
constexpr double kTabWidth = 30.0;   ///< cross-coupling gate tab width
constexpr double kContact = 20.0;    ///< contact side
constexpr double kSourceGap = 60.0;  ///< latch shared-source gap

} // namespace

size_t
SaRegionTruth::countRole(Role role) const
{
    size_t n = 0;
    for (const auto &d : devices)
        if (d.role == role)
            ++n;
    return n;
}

SaRegionSpec
SaRegionSpec::fromChip(const models::ChipSpec &chip, size_t pairs)
{
    SaRegionSpec spec;
    spec.topology = chip.topology;
    spec.pairs = pairs;
    spec.blPitchNm = chip.blPitchNm;
    spec.blWidthNm = chip.blWidthNm;
    spec.transitionNm = chip.transitionNm;
    spec.nsa = *chip.role(Role::Nsa);
    spec.psa = *chip.role(Role::Psa);
    spec.pre = *chip.role(Role::Precharge);
    if (chip.role(Role::Equalizer))
        spec.eq = *chip.role(Role::Equalizer);
    spec.col = *chip.role(Role::Column);
    if (chip.role(Role::Iso))
        spec.iso = *chip.role(Role::Iso);
    if (chip.role(Role::Oc))
        spec.oc = *chip.role(Role::Oc);
    spec.lsa = *chip.role(Role::Lsa);
    return spec;
}

std::shared_ptr<layout::Cell>
buildSaRegion(const SaRegionSpec &spec, SaRegionTruth &truth)
{
    const telemetry::Span span("fab.build_region");
    if (spec.pairs == 0)
        throw std::invalid_argument("buildSaRegion: zero pairs");
    if (spec.stackedSas != 1 && spec.stackedSas != 2)
        throw std::invalid_argument("buildSaRegion: stackedSas must "
                                    "be 1 or 2");

    const size_t n_bl = 2 * spec.pairs;
    const double pitch = spec.blPitchNm;
    const double margin = pitch;
    const double region_h =
        2.0 * margin + (static_cast<double>(n_bl) - 1.0) * pitch +
        spec.blWidthNm;

    auto cell = std::make_shared<layout::Cell>(
        spec.topology == Topology::Classic ? "SA_REGION_CLASSIC"
                                           : "SA_REGION_OCSA");

    // Process variation: systematic corner CD bias, cross-wafer CD
    // drift, and per-device dimension jitter — all recorded in the
    // truth through the drawn rectangles, so validation stays exact.
    // Draw order is unchanged when the corner knobs are zero, keeping
    // the clean fab bit-identical.
    common::Rng jitter_rng(spec.jitterSeed);
    const models::CornerVariation &var = spec.variation;
    double total_w_hint = 1.0; // patched once the X budget is known
    auto jittered = [&](models::Dims d, double x_hint = -1.0) {
        double scale = 1.0 + var.cdBiasFrac;
        if (var.cdDriftFracAcross != 0.0 && x_hint >= 0.0)
            scale += var.cdDriftFracAcross *
                (x_hint / total_w_hint - 0.5);
        if (scale != 1.0) {
            d.w *= scale;
            d.l *= scale;
        }
        if (spec.dimJitterNm > 0.0) {
            d.w = std::max(10.0, d.w + jitter_rng.gaussian(
                                           0.0, spec.dimJitterNm));
            d.l = std::max(8.0, d.l + jitter_rng.gaussian(
                                          0.0, spec.dimJitterNm));
        }
        if (var.cdSigmaFrac > 0.0) {
            d.w = std::max(
                10.0, d.w * (1.0 + jitter_rng.gaussian(
                                       0.0, var.cdSigmaFrac)));
            d.l = std::max(
                8.0, d.l * (1.0 + jitter_rng.gaussian(
                                      0.0, var.cdSigmaFrac)));
        }
        return d;
    };
    truth = SaRegionTruth{};
    truth.topology = spec.topology;

    auto bl_center = [&](size_t i) {
        return margin + static_cast<double>(i) * pitch +
            spec.blWidthNm / 2.0;
    };
    auto pair_center = [&](size_t pair) {
        return (bl_center(2 * pair) + bl_center(2 * pair + 1)) / 2.0;
    };

    const bool ocsa = spec.topology == Topology::Ocsa;

    // ------- X budget ------------------------------------------------
    double x = spec.transitionNm;

    // Column zone: four staggered slots.
    const double col_slot = spec.col.l + 2.0 * kZoneGap;
    const double col_x = x;
    x += 4.0 * col_slot + kZoneGap;

    double iso_x = -1.0, oc_x = -1.0;
    if (ocsa) {
        iso_x = x;
        x += spec.iso.l + kZoneGap;
        oc_x = x;
        x += spec.oc.l + kZoneGap;
    }

    // Latch pairs are staggered over two sub-columns (Fig. 10), so
    // each latch zone is two pair-structures wide.
    const double nsa_pair_w =
        2.0 * spec.nsa.w + kSourceGap + 2.0 * kActiveExt;
    const double psa_pair_w =
        2.0 * spec.psa.w + kSourceGap + 2.0 * kActiveExt;
    const double nsa_x = x;
    x += 2.0 * nsa_pair_w + 2.0 * kZoneGap;
    const double psa_x = x;
    x += 2.0 * psa_pair_w + 2.0 * kZoneGap;

    const double pre_x = x;
    x += spec.pre.l + kZoneGap;
    double eq_x = -1.0;
    if (!ocsa) {
        eq_x = x;
        x += spec.eq.l + kZoneGap;
    }

    const double lsa_x = x;
    x += spec.lsa.w + kZoneGap + margin;
    const double region_w = x;

    // With two stacked SAs the region is SA1 followed by its mirror
    // image (MAT | SA1 | SA2 | MAT); even pairs belong to SA1, odd
    // pairs to SA2.
    const bool two_sas = spec.stackedSas == 2;
    const double total_w = two_sas ? 2.0 * region_w : region_w;
    total_w_hint = total_w;
    auto place = [&](const Rect &r, bool sa2) {
        return sa2 ? Rect(total_w - r.x1, r.y0, total_w - r.x0, r.y1)
                   : r;
    };
    auto in_sa2 = [&](size_t pair) {
        return two_sas && (pair % 2 == 1);
    };
    /// Physical wafer position of a zone x (mirrored for SA2), for
    /// the cross-wafer CD drift gradient.
    auto phys_x = [&](double x, bool sa2) {
        return sa2 ? total_w - x : x;
    };

    truth.region = Rect(0.0, 0.0, total_w, region_h);

    // ------- Bitlines -------------------------------------------------
    for (size_t i = 0; i < n_bl; ++i) {
        const double yc = bl_center(i);
        const Rect bl(0.0, yc - spec.blWidthNm / 2.0, total_w,
                      yc + spec.blWidthNm / 2.0);
        cell->addShape(bl, Layer::Metal1, "BL" + std::to_string(i));
        truth.bitlines.push_back(bl);
    }

    // ------- Column multiplexers ---------------------------------------
    for (size_t i = 0; i < n_bl; ++i) {
        const bool sa2 = in_sa2(i / 2);
        const models::Dims d = jittered(
            spec.col,
            phys_x(col_x + static_cast<double>(i % 4) * col_slot,
                   sa2));
        const double col_w =
            std::min(d.w, 4.0 * pitch - 2.0 * spec.minGapNm);
        const double yc = bl_center(i);
        const double gx =
            col_x + static_cast<double>(i % 4) * col_slot + kZoneGap;
        const Rect gate = place(
            Rect(gx, yc - col_w / 2.0, gx + d.l, yc + col_w / 2.0),
            sa2);
        const Rect active =
            place(Rect(gx - kActiveExt, yc - col_w / 2.0,
                       gx + d.l + kActiveExt, yc + col_w / 2.0),
                  sa2);
        cell->addShape(active, Layer::Active);
        cell->addShape(gate, Layer::Gate, "YI" + std::to_string(i % 4));
        cell->addShape(place(Rect(gx - kActiveExt, yc - kContact / 2.0,
                                  gx - kActiveExt + kContact,
                                  yc + kContact / 2.0),
                             sa2),
                       Layer::Contact);
        cell->addShape(place(Rect(gx + d.l + kActiveExt - kContact,
                                  yc - kContact / 2.0,
                                  gx + d.l + kActiveExt,
                                  yc + kContact / 2.0),
                             sa2),
                       Layer::Contact);
        truth.devices.push_back({Role::Column, gate, active, i, i, {}});
    }

    // ------- Common-gate strips -----------------------------------------
    // One folded active segment per bitline pair keeps the segments
    // resolvable at the slice's pitch; the drawn (clipped) width is
    // recorded in the truth.
    auto add_strip = [&](Role role, double sx, double length,
                         double want_w, const std::string &net,
                         bool sa2) {
        cell->addShape(place(Rect(sx, 0.0, sx + length, region_h),
                             sa2),
                       Layer::Gate, net);
        for (size_t pair = 0; pair < spec.pairs; ++pair) {
            if (in_sa2(pair) != sa2)
                continue;
            const double w = std::min(
                jittered({want_w, length}, phys_x(sx, sa2)).w,
                2.0 * pitch - spec.minGapNm);
            const double yc = pair_center(pair);
            const Rect active =
                place(Rect(sx - kActiveExt, yc - w / 2.0,
                           sx + length + kActiveExt, yc + w / 2.0),
                      sa2);
            cell->addShape(active, Layer::Active);
            cell->addShape(
                place(Rect(sx + length + kActiveExt - kContact,
                           yc - kContact / 2.0,
                           sx + length + kActiveExt,
                           yc + kContact / 2.0),
                      sa2),
                Layer::Contact);
            const Rect body = place(
                Rect(sx, yc - w / 2.0, sx + length, yc + w / 2.0),
                sa2);
            truth.devices.push_back(
                {role, body, active, 2 * pair, 2 * pair, {}});
        }
    };

    for (size_t set = 0; set < spec.stackedSas; ++set) {
        const bool sa2 = set == 1;
        const std::string sfx = sa2 ? "2" : "";
        if (ocsa) {
            add_strip(Role::Iso, iso_x, spec.iso.l, spec.iso.w,
                      "ISO" + sfx, sa2);
            add_strip(Role::Oc, oc_x, spec.oc.l, spec.oc.w,
                      "OC" + sfx, sa2);
            add_strip(Role::Precharge, pre_x, spec.pre.l, spec.pre.w,
                      "PRE" + sfx, sa2);
        } else {
            add_strip(Role::Precharge, pre_x, spec.pre.l, spec.pre.w,
                      "PEQ" + sfx, sa2);
            add_strip(Role::Equalizer, eq_x, spec.eq.l, spec.eq.w,
                      "PEQ" + sfx, sa2);
            // Bridge the two strips at the region edge: one PEQ
            // control per SA set.
            cell->addShape(place(Rect(pre_x, region_h - 15.0,
                                      eq_x + spec.eq.l, region_h),
                                 sa2),
                           Layer::Gate, "PEQ" + sfx);
        }
    }
    truth.commonGateComponents =
        (ocsa ? 3 : 1) * spec.stackedSas;

    // ------- Latch pairs --------------------------------------------------
    auto add_latch_pair = [&](Role role, double zone_x, double pair_w,
                              const models::Dims &dims, size_t pair) {
        const bool sa2 = in_sa2(pair);
        // Stagger: every second pair *within its SA set* shifts one
        // pair-structure to the right.
        const double lx = zone_x + kActiveExt +
            ((pair / spec.stackedSas) % 2 == 1 ? pair_w + kZoneGap
                                               : 0.0);
        const size_t a = 2 * pair;
        const size_t b = 2 * pair + 1;
        const double yp = pair_center(pair);

        const Rect active = place(
            Rect(lx - kActiveExt, yp - dims.l / 2.0 - 8.0,
                 lx + 2.0 * dims.w + kSourceGap + kActiveExt,
                 yp + dims.l / 2.0 + 8.0),
            sa2);
        cell->addShape(active, Layer::Active);

        const Rect gate_a = place(Rect(lx, yp - dims.l / 2.0,
                                       lx + dims.w,
                                       yp + dims.l / 2.0),
                                  sa2);
        const Rect gate_b = place(
            Rect(lx + dims.w + kSourceGap, yp - dims.l / 2.0,
                 lx + 2.0 * dims.w + kSourceGap, yp + dims.l / 2.0),
            sa2);
        const std::string prefix =
            (role == Role::Nsa ? "nSA" : "pSA") + std::to_string(pair);
        cell->addShape(gate_a, Layer::Gate, prefix + "a");
        cell->addShape(gate_b, Layer::Gate, prefix + "b");

        // Shared-source contact between the gates.
        const double sx = lx + dims.w + kSourceGap / 2.0;
        cell->addShape(place(Rect(sx - kContact / 2.0,
                                  yp - kContact / 2.0,
                                  sx + kContact / 2.0,
                                  yp + kContact / 2.0),
                             sa2),
                       Layer::Contact);

        // Cross-coupling tabs and contacts (Fig. 8): device A's gate
        // reaches bitline b, device B's gate reaches bitline a.
        const double yb = bl_center(b);
        cell->addShape(place(Rect(lx, yp, lx + kTabWidth, yb + 10.0),
                             sa2),
                       Layer::Gate, prefix + "a");
        const Rect contact_a = place(Rect(lx, yb - kContact / 2.0,
                                          lx + kTabWidth,
                                          yb + kContact / 2.0),
                                     sa2);
        cell->addShape(contact_a, Layer::Contact);
        const double ya = bl_center(a);
        const double bx = lx + dims.w + kSourceGap;
        cell->addShape(place(Rect(bx, ya - 10.0, bx + kTabWidth, yp),
                             sa2),
                       Layer::Gate, prefix + "b");
        const Rect contact_b = place(Rect(bx, ya - kContact / 2.0,
                                          bx + kTabWidth,
                                          ya + kContact / 2.0),
                                     sa2);
        cell->addShape(contact_b, Layer::Contact);

        truth.devices.push_back(
            {role, gate_a, active, a, b, contact_a});
        truth.devices.push_back(
            {role, gate_b, active, b, a, contact_b});
    };

    for (size_t pair = 0; pair < spec.pairs; ++pair) {
        add_latch_pair(Role::Nsa, nsa_x, nsa_pair_w,
                       jittered(spec.nsa,
                                phys_x(nsa_x, in_sa2(pair))),
                       pair);
        add_latch_pair(Role::Psa, psa_x, psa_pair_w,
                       jittered(spec.psa,
                                phys_x(psa_x, in_sa2(pair))),
                       pair);
    }

    // ------- LSA block (next datapath stage, Section V-C) ---------------
    for (size_t pair = 0; pair < spec.pairs; ++pair) {
        const bool sa2 = in_sa2(pair);
        const models::Dims d = jittered(spec.lsa, phys_x(lsa_x, sa2));
        const double yp = pair_center(pair);
        const Rect gate = place(Rect(lsa_x, yp - d.l / 2.0,
                                     lsa_x + d.w, yp + d.l / 2.0),
                                sa2);
        const Rect active =
            place(Rect(lsa_x - kActiveExt, yp - d.l / 2.0,
                       lsa_x + d.w + kActiveExt, yp + d.l / 2.0),
                  sa2);
        cell->addShape(active, Layer::Active);
        cell->addShape(gate, Layer::Gate, "LSA" + std::to_string(pair));
        truth.devices.push_back(
            {Role::Lsa, gate, active, 2 * pair, 2 * pair, {}});
    }

    return cell;
}

} // namespace fab
} // namespace hifi
