#include "scope/fib.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/telemetry.hh"
#include "image/noise.hh"
#include "image/registration.hh"

namespace hifi
{
namespace scope
{

namespace
{

/// Count a per-fault-kind QC decision ("qc.<decision>.<fault>").
/// Only called when telemetry is enabled; the registry lookup is
/// per-slice, not per-pixel, so the string build is cheap enough.
void
countDecision(const char *decision, int fault_kind, uint64_t n = 1)
{
    telemetry::registry()
        .counter(std::string("qc.") + decision + "." +
                 faultName(static_cast<FaultKind>(fault_kind)))
        .add(n);
}

/// Dedicated RNG substream for the stage-drift walk (far away from
/// the per-slice attempt streams, which start at 0).
constexpr uint64_t kDriftStream = ~0ull;

/// Substreams per slice: kMaxAttemptsPerSlice attempts, each with a
/// fault stream (even) and a frame-noise stream (odd).
constexpr uint64_t kSliceStreamStride = 2 * kMaxAttemptsPerSlice;

/// One mean-reverting bounded drift step shared by both acquirers.
long
driftStep(long drift, double probability, long max_px,
          common::Rng &rng)
{
    if (rng.uniform() >= probability)
        return drift;
    // Mean reversion: more likely to step back toward zero the
    // further out the stage has wandered.
    const double p_out = 0.5 /
        (1.0 + std::abs(static_cast<double>(drift)) /
             static_cast<double>(max_px));
    const long delta = (rng.uniform() < p_out) ? 1 : -1;
    const long next = drift + (drift >= 0 ? delta : -delta);
    return std::clamp(next, -max_px, max_px);
}

} // namespace

std::optional<common::Error>
validate(const FibSemParams &params)
{
    using common::Error;
    using common::ErrorCode;
    if (params.sliceVoxels == 0)
        return Error{ErrorCode::InvalidArgument,
                     "FibSemParams: sliceVoxels must be > 0"};
    if (!(params.driftProbability >= 0.0) ||
        !(params.driftProbability <= 1.0))
        return Error{ErrorCode::InvalidArgument,
                     "FibSemParams: driftProbability outside [0, 1]"};
    if (params.maxDriftPx < 1)
        return Error{ErrorCode::InvalidArgument,
                     "FibSemParams: maxDriftPx must be >= 1"};
    if (!(params.sem.dwellUs > 0.0))
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: dwellUs must be > 0"};
    if (!(params.sem.electronsPerUs > 0.0))
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: electronsPerUs must be > 0"};
    if (params.sem.readNoise < 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: readNoise must be >= 0"};
    if (!(params.sem.seQuality > 0.0) || params.sem.seQuality > 1.0)
        return Error{ErrorCode::InvalidArgument,
                     "SemParams: seQuality outside (0, 1]"};
    return std::nullopt;
}

std::optional<common::Error>
validate(const RecoveryParams &params)
{
    using common::Error;
    using common::ErrorCode;
    if (params.maxRetries + 1 > kMaxAttemptsPerSlice)
        return Error{ErrorCode::InvalidArgument,
                     "RecoveryParams: maxRetries must be < " +
                         std::to_string(kMaxAttemptsPerSlice)};
    if (params.cleanCacheCapacity < 1)
        return Error{ErrorCode::InvalidArgument,
                     "RecoveryParams: cleanCacheCapacity must be "
                     ">= 1"};
    const image::QcThresholds &qc = params.qc;
    if (qc.miBins < 2)
        return Error{ErrorCode::InvalidArgument,
                     "QcThresholds: miBins must be >= 2"};
    if (qc.history < 1)
        return Error{ErrorCode::InvalidArgument,
                     "QcThresholds: history must be >= 1"};
    if (qc.maxNeighborShiftPx < 0 || qc.shiftSearchPx < 1)
        return Error{ErrorCode::InvalidArgument,
                     "QcThresholds: shift bounds must be >= 0 / >= 1"};
    if (qc.shiftSearchPx <= qc.maxNeighborShiftPx)
        return Error{ErrorCode::FailedPrecondition,
                     "QcThresholds: shiftSearchPx must exceed "
                     "maxNeighborShiftPx or excursions are "
                     "undetectable"};
    return std::nullopt;
}

// ---- Clean-frame LRU cache -----------------------------------------

CleanFrameCache::CleanFrameCache(size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
}

image::Image2D
CleanFrameCache::fetch(uint64_t key,
                       const std::function<image::Image2D()> &render)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            if (telemetry::enabled())
                telemetry::registry()
                    .counter("sem.clean_cache.hit")
                    .add(1);
            return it->second->second;
        }
    }
    // Render outside the lock: the value is a pure function of the
    // key, so two threads racing on the same miss both produce the
    // identical frame and either insert wins.
    image::Image2D frame = render();
    if (telemetry::enabled())
        telemetry::registry().counter("sem.clean_cache.miss").add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(key) == index_.end()) {
        lru_.emplace_front(key, frame);
        index_[key] = lru_.begin();
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
            ++evictions_;
            if (telemetry::enabled())
                telemetry::registry()
                    .counter("sem.clean_cache.evicted")
                    .add(1);
        }
    }
    return frame;
}

size_t
CleanFrameCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

uint64_t
CleanFrameCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

namespace
{

/// FNV-1a mix for clean-frame cache keys.
uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    h ^= v;
    return h * 1099511628211ull;
}

/// Digest of everything a clean frame depends on besides the volume:
/// mill position, slice thickness and the SEM imaging parameters.
uint64_t
cleanFrameKey(uint64_t volume_key, size_t x, size_t slice_voxels,
              const SemParams &sem)
{
    uint64_t h = 1469598103934665603ull;
    h = fnvMix(h, volume_key);
    h = fnvMix(h, static_cast<uint64_t>(x));
    h = fnvMix(h, static_cast<uint64_t>(slice_voxels));
    h = fnvMix(h, static_cast<uint64_t>(sem.detector));
    uint64_t bits = 0;
    const double fields[] = {sem.dwellUs, sem.electronsPerUs,
                             sem.readNoise, sem.seQuality};
    for (const double f : fields) {
        static_assert(sizeof(bits) == sizeof(f), "bit pun");
        __builtin_memcpy(&bits, &f, sizeof(bits));
        h = fnvMix(h, bits);
    }
    return h;
}

} // namespace

image::SliceStack
acquire(const image::Volume3D &materials, const FibSemParams &params,
        common::Rng &rng)
{
    if (params.sliceVoxels == 0)
        throw std::invalid_argument("acquire: zero slice thickness");

    const telemetry::Span span("scope.acquire");
    image::SliceStack stack;
    stack.sliceThicknessNm = 0.0; // caller-level metadata; see below

    long drift_y = 0, drift_z = 0;
    for (size_t x = 0; x + params.sliceVoxels <= materials.nx();
         x += params.sliceVoxels) {
        if (x > 0) {
            drift_y = driftStep(drift_y, params.driftProbability,
                                params.maxDriftPx, rng);
            drift_z = driftStep(drift_z, params.driftProbability,
                                params.maxDriftPx, rng);
        }
        const telemetry::Span frame_span("scope.sem_image");
        image::Image2D img =
            semImage(materials, x, params.sliceVoxels, params.sem, rng);
        stack.slices.push_back(img.shifted(drift_y, drift_z));
        stack.trueDrift.emplace_back(drift_y, drift_z);
    }
    return stack;
}

// ---- Robust acquisition (streaming core) ---------------------------

StreamAcquisitionStats
acquireRobustStreamed(const image::Volume3D &materials,
                      const FibSemParams &params,
                      const FaultParams &faults,
                      const RecoveryParams &recovery, uint64_t seed,
                      const SliceConsumer &sink,
                      CleanFrameCache *sharedCleanFrames,
                      uint64_t volumeKey)
{
    if (const auto err = validate(params))
        throw std::invalid_argument("acquireRobust: " + err->message);
    if (const auto err = validate(faults))
        throw std::invalid_argument("acquireRobust: " + err->message);
    if (const auto err = validate(recovery))
        throw std::invalid_argument("acquireRobust: " + err->message);

    const telemetry::Span span("scope.acquire");
    StreamAcquisitionStats out;

    std::vector<size_t> positions;
    for (size_t x = 0; x + params.sliceVoxels <= materials.nx();
         x += params.sliceVoxels)
        positions.push_back(x);
    if (positions.empty())
        return out;
    out.slices = positions.size();

    // The drift walk is drawn from its own substream up front, so it
    // is a pure function of the seed no matter how many re-imaging
    // attempts individual slices need.
    std::vector<std::pair<long, long>> drift(positions.size(),
                                             {0, 0});
    {
        common::Rng drift_rng(seed, kDriftStream);
        long dy = 0, dz = 0;
        for (size_t s = 1; s < positions.size(); ++s) {
            dy = driftStep(dy, params.driftProbability,
                           params.maxDriftPx, drift_rng);
            dz = driftStep(dz, params.driftProbability,
                           params.maxDriftPx, drift_rng);
            drift[s] = {dy, dz};
        }
    }

    const double electrons =
        params.sem.electronsPerUs * params.sem.dwellUs;
    const size_t max_attempts = recovery.maxRetries + 1;
    image::QcMonitor monitor(recovery.qc);

    // QC checks that compare against neighbours/history rather than
    // measuring the frame itself.  A *content* change in the sample
    // trips these exactly like an imaging fault would — but unlike a
    // fault it reproduces identically on a re-image.  When a retry is
    // flagged only by these checks and agrees with the previous
    // attempt of the same slice, the anomaly is confirmed as real
    // content and the slice is accepted (re-anchoring the baselines).
    constexpr unsigned kContentFlags =
        image::kQcStripes | image::kQcDefocus | image::kQcLowMi;

    // Between two noisy images of the same face the MI fluctuates a
    // few percent, and for near-identical adjacent slices it is
    // statistically tied with the MI to the reference — so "attempts
    // agree" needs slack or it degenerates into a coin flip.
    constexpr double kAttemptAgreementRatio = 0.85;

    // Clean-frame cache: re-imaging attempts (and skip-overshoot
    // collisions) at the same mill position re-render the identical
    // deterministic clean frame, so cache the rendered faces.  Noise
    // and faults are still applied per attempt.  A shared cache (the
    // campaign service) spans jobs; otherwise a private bounded LRU
    // covers this acquisition alone.
    std::optional<CleanFrameCache> local_cache;
    CleanFrameCache *clean_cache = sharedCleanFrames;
    if (clean_cache == nullptr && recovery.reuseCleanFrames)
        clean_cache =
            &local_cache.emplace(recovery.cleanCacheCapacity);

    // Streaming recovery state.  A budget-exhausted slice cannot be
    // finalized until its nearest accepted *right* neighbour exists,
    // so consecutive failures are held back and resolved as a run —
    // the same nearest-accepted-neighbour blend the in-RAM pass
    // computed, produced in strictly increasing index order.  The
    // held-back set is the failure run plus one retained accepted
    // frame, not the stack.
    std::vector<StreamedSlice> pending;
    image::Image2D last_accepted_frame;
    std::pair<long, long> last_accepted_drift{0, 0};
    bool have_accepted = false;
    double weight = 0.0;

    const auto emitSlice = [&](StreamedSlice &&s) {
        if (!s.provenance.unrecoverable)
            weight += s.provenance.interpolated ? 0.5 : 1.0;
        sink(std::move(s));
    };

    // Finalize the pending failure run against the just-accepted
    // right neighbour (null at end of stream).  Matches the dense
    // interpolation pass: blend when both neighbours exist, copy the
    // single neighbour otherwise, unrecoverable when neither does.
    const auto resolvePending = [&](const image::Image2D *right_frame,
                                    const std::pair<long, long>
                                        *right_drift) {
        if (pending.empty())
            return;
        const telemetry::Span interp_span("scope.interpolate");
        for (StreamedSlice &p : pending) {
            if (have_accepted && right_frame != nullptr) {
                const image::Image2D &a = last_accepted_frame;
                const image::Image2D &b = *right_frame;
                image::Image2D blend(a.width(), a.height());
                for (size_t i = 0; i < blend.size(); ++i)
                    blend.data()[i] =
                        0.5f * (a.data()[i] + b.data()[i]);
                p.frame = std::move(blend);
                p.drift = {(last_accepted_drift.first +
                            right_drift->first) /
                               2,
                           (last_accepted_drift.second +
                            right_drift->second) /
                               2};
            } else if (have_accepted) {
                p.frame = last_accepted_frame;
                p.drift = last_accepted_drift;
            } else if (right_frame != nullptr) {
                p.frame = *right_frame;
                p.drift = *right_drift;
            } else {
                p.provenance.unrecoverable = true;
                p.decision.unrecoverable = true;
                ++out.slicesUnrecoverable;
                if (telemetry::enabled())
                    countDecision("unrecoverable",
                                  p.provenance.injectedFault);
                emitSlice(std::move(p));
                continue;
            }
            p.provenance.interpolated = true;
            p.decision.interpolated = true;
            ++out.slicesInterpolated;
            out.interpolatedSlices.push_back(p.index);
            if (telemetry::enabled())
                countDecision("interpolate",
                              p.provenance.injectedFault);
            emitSlice(std::move(p));
        }
        pending.clear();
    };

    for (size_t s = 0; s < positions.size(); ++s) {
        const telemetry::Span slice_span("scope.slice");
        image::SliceProvenance prov;
        image::Image2D frame;
        image::QcMetrics qc;
        std::pair<long, long> applied = drift[s];
        bool skip_active = false;
        bool ok = false;
        image::Image2D prev_attempt;
        SliceDecision decision;
        decision.slice = s;

        for (size_t a = 0; a < max_attempts; ++a) {
            // All randomness of attempt (s, a) comes from two
            // counter-seeded substreams: fault placement (even) and
            // frame noise (odd).  Pure function of (seed, s, a).
            common::Rng fault_rng(
                seed, kSliceStreamStride * s + 2 * a);
            FaultKind kind = sampleFaultKind(faults, fault_rng);
            if (kind == FaultKind::SliceSkip) {
                // The mill only runs once: a double mill on the first
                // attempt corrupts every attempt; sampled on a retry
                // it is a no-op (re-imaging does not re-mill).
                if (a == 0)
                    skip_active = true;
                kind = FaultKind::None;
            }

            size_t x = positions[s];
            if (skip_active) {
                const size_t overshoot =
                    faults.skipOvershootSlices * params.sliceVoxels;
                x = std::min(x + overshoot,
                             materials.nx() - params.sliceVoxels);
            }

            image::Image2D img;
            {
                const telemetry::Span image_span("scope.sem_image");
                if (recovery.reuseCleanFrames && clean_cache) {
                    img = clean_cache->fetch(
                        cleanFrameKey(volumeKey, x,
                                      params.sliceVoxels, params.sem),
                        [&] {
                            return semImageClean(materials, x,
                                                 params.sliceVoxels,
                                                 params.sem);
                        });
                } else {
                    img = semImageClean(materials, x,
                                        params.sliceVoxels,
                                        params.sem);
                }
                const uint64_t frame_seed =
                    common::Rng(seed,
                                kSliceStreamStride * s + 2 * a + 1)
                        .next();
                image::addSensorNoise(img, electrons,
                                      params.sem.readNoise,
                                      frame_seed);
                applyImagingFault(img, kind, faults, fault_rng);
            }

            std::pair<long, long> shift = drift[s];
            if (kind == FaultKind::DriftExcursion) {
                const auto ex = sampleExcursion(
                    faults, params.maxDriftPx, fault_rng);
                shift.first += ex.first;
                shift.second += ex.second;
            }
            frame = img.shifted(shift.first, shift.second);
            {
                const telemetry::Span qc_span("image.qc");
                qc = monitor.evaluate(frame);
            }

            // Persistence check: the anomaly survived a re-image of
            // the same face and the two attempts agree with each
            // other better than with the stale reference — real
            // sample content, not an imaging fault.
            bool content_confirmed = false;
            if (qc.flagged() && a > 0 &&
                (qc.flags & ~kContentFlags) == 0) {
                const double mi_attempts = image::mutualInformation(
                    prev_attempt, frame, recovery.qc.miBins);
                const double stripe_rms =
                    image::profileDifferenceRms(
                        image::smoothedColumnProfile(prev_attempt),
                        image::smoothedColumnProfile(frame));
                content_confirmed = mi_attempts >=
                        kAttemptAgreementRatio * qc.miVsPrev &&
                    stripe_rms <= recovery.qc.maxStripeScore;
            }

            const FaultKind attempt_fault =
                skip_active ? FaultKind::SliceSkip : kind;
            if (a == 0) {
                prov.injectedFault =
                    static_cast<int>(attempt_fault);
                prov.firstAttemptFlagged = qc.flagged();
                prov.firstAttemptFlags = qc.flags;
            }
            prov.attempts = a + 1;
            applied = shift;

            QcAttemptRecord attempt_rec;
            attempt_rec.attempt = a;
            attempt_rec.fault = static_cast<int>(attempt_fault);
            attempt_rec.metrics = qc;
            attempt_rec.contentConfirmed = content_confirmed;
            attempt_rec.accepted =
                !qc.flagged() || content_confirmed;
            decision.attempts.push_back(attempt_rec);

            if (!qc.flagged() || content_confirmed) {
                prov.acceptedFault = static_cast<int>(attempt_fault);
                ok = true;
                break;
            }
            prev_attempt = frame; // keep: the last attempt's frame
                                  // still lands in the stack below
        }

        if (ok) {
            monitor.accept(frame, qc);
        } else {
            prov.accepted = false;
            monitor.noteRejected();
        }
        if (prov.attempts > 1)
            ++out.slicesRetried;
        out.retries += prov.attempts - 1;
        if (prov.injectedFault != 0) {
            ++out.faultsInjected;
            if (prov.firstAttemptFlagged)
                ++out.faultsDetected;
        }
        if (telemetry::enabled()) {
            if (ok)
                countDecision("accept", prov.injectedFault);
            if (prov.attempts > 1)
                countDecision("retry", prov.injectedFault,
                              prov.attempts - 1);
        }
        decision.injectedFault = prov.injectedFault;
        decision.accepted = ok;

        StreamedSlice streamed;
        streamed.index = s;
        streamed.frame = std::move(frame);
        streamed.drift = applied;
        streamed.provenance = prov;
        streamed.qc = qc;
        streamed.decision = std::move(decision);

        if (ok) {
            resolvePending(&streamed.frame, &streamed.drift);
            last_accepted_frame = streamed.frame;
            last_accepted_drift = streamed.drift;
            have_accepted = true;
            emitSlice(std::move(streamed));
        } else if (!recovery.interpolate) {
            // No interpolation policy: the flagged frame is kept and
            // the slice finalizes (as unrecoverable) immediately.
            streamed.provenance.unrecoverable = true;
            streamed.decision.unrecoverable = true;
            ++out.slicesUnrecoverable;
            if (telemetry::enabled())
                countDecision("unrecoverable",
                              streamed.provenance.injectedFault);
            emitSlice(std::move(streamed));
        } else {
            pending.push_back(std::move(streamed));
        }
    }

    // Failures with no accepted slice to their right resolve against
    // the left neighbour alone (or become unrecoverable).
    resolvePending(nullptr, nullptr);

    out.qcConfidence =
        weight / static_cast<double>(positions.size());
    return out;
}

RobustAcquisition
acquireRobust(const image::Volume3D &materials,
              const FibSemParams &params, const FaultParams &faults,
              const RecoveryParams &recovery, uint64_t seed,
              CleanFrameCache *sharedCleanFrames, uint64_t volumeKey)
{
    RobustAcquisition out;
    out.stack.sliceThicknessNm = 0.0; // caller-level metadata

    StreamAcquisitionStats stats = acquireRobustStreamed(
        materials, params, faults, recovery, seed,
        [&out](StreamedSlice &&s) {
            out.stack.slices.push_back(std::move(s.frame));
            out.stack.trueDrift.push_back(s.drift);
            out.stack.provenance.push_back(s.provenance);
            out.qc.push_back(s.qc);
            out.audit.push_back(std::move(s.decision));
        },
        sharedCleanFrames, volumeKey);

    out.slicesRetried = stats.slicesRetried;
    out.retries = stats.retries;
    out.slicesInterpolated = stats.slicesInterpolated;
    out.slicesUnrecoverable = stats.slicesUnrecoverable;
    out.faultsInjected = stats.faultsInjected;
    out.faultsDetected = stats.faultsDetected;
    out.qcConfidence = stats.qcConfidence;
    out.interpolatedSlices = std::move(stats.interpolatedSlices);
    return out;
}

namespace
{

void
appendFlagNames(std::string &out, unsigned flags)
{
    static const std::pair<unsigned, const char *> kNames[] = {
        {image::kQcLowSnr, "low_snr"},
        {image::kQcSaturation, "saturation"},
        {image::kQcDeadRows, "dead_rows"},
        {image::kQcStripes, "stripes"},
        {image::kQcDefocus, "defocus"},
        {image::kQcLowMi, "low_mi"},
        {image::kQcShift, "shift"},
    };
    out += '[';
    bool first = true;
    for (const auto &[bit, name] : kNames) {
        if (!(flags & bit))
            continue;
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += name;
        out += '"';
    }
    out += ']';
}

void
appendNum(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

} // namespace

std::string
qcAuditJson(const std::vector<SliceDecision> &audit)
{
    std::string out = "{\"slices\":[";
    for (size_t i = 0; i < audit.size(); ++i) {
        const SliceDecision &d = audit[i];
        out += i ? ",\n " : "\n ";
        out += "{\"slice\":" + std::to_string(d.slice) +
            ",\"injected_fault\":\"" +
            faultName(static_cast<FaultKind>(d.injectedFault)) +
            "\",\"accepted\":" + (d.accepted ? "true" : "false") +
            ",\"interpolated\":" +
            (d.interpolated ? "true" : "false") +
            ",\"unrecoverable\":" +
            (d.unrecoverable ? "true" : "false") + ",\"attempts\":[";
        for (size_t a = 0; a < d.attempts.size(); ++a) {
            const QcAttemptRecord &att = d.attempts[a];
            out += a ? ",\n  " : "\n  ";
            out += "{\"attempt\":" + std::to_string(att.attempt) +
                ",\"fault\":\"" +
                faultName(static_cast<FaultKind>(att.fault)) +
                "\",\"flags\":";
            appendFlagNames(out, att.metrics.flags);
            out += ",\"snr\":";
            appendNum(out, att.metrics.snr);
            out += ",\"focus\":";
            appendNum(out, att.metrics.focusScore);
            out += ",\"saturation\":";
            appendNum(out, att.metrics.saturationFraction);
            out += ",\"dead_rows\":";
            appendNum(out, att.metrics.deadRowFraction);
            out += ",\"stripe\":";
            appendNum(out, att.metrics.stripeScore);
            out += ",\"mi_vs_prev\":";
            appendNum(out, att.metrics.miVsPrev);
            out += ",\"shift\":[" +
                std::to_string(att.metrics.shiftX) + "," +
                std::to_string(att.metrics.shiftY) + "]";
            out += ",\"content_confirmed\":";
            out += att.contentConfirmed ? "true" : "false";
            out += ",\"accepted\":";
            out += att.accepted ? "true" : "false";
            out += "}";
        }
        out += "]}";
    }
    out += "\n]}\n";
    return out;
}

CampaignCost
campaignCost(const models::ChipSpec &chip)
{
    CampaignCost cost;
    // Square ROI of the Table I area; the imaged stack face is the
    // ROI width by a ~2 um deep IC cross-section.
    const double side_um = std::sqrt(chip.roiAreaUm2);
    const double stack_depth_um = 2.0;

    cost.slices = static_cast<size_t>(
        std::ceil(side_um * 1000.0 / chip.sliceNm));
    const double px_w = side_um * 1000.0 / chip.pixelResNm;
    const double px_h = stack_depth_um * 1000.0 / chip.pixelResNm;
    cost.pixelsPerImage = px_w * px_h;

    // Mill time grows with the cross-section width; 18 s per um of
    // face width reproduces the paper's >24 h for the 100 um^2 scans.
    cost.millSecondsPerSlice = 18.0 * side_um;
    cost.imageSecondsPerSlice =
        cost.pixelsPerImage * chip.dwellUs * 1e-6;
    cost.secondsPerSlice =
        cost.millSecondsPerSlice + cost.imageSecondsPerSlice;
    cost.totalHours = static_cast<double>(cost.slices) *
        cost.secondsPerSlice / 3600.0;
    return cost;
}

void
chargeRetries(CampaignCost &cost, size_t retries)
{
    cost.reimagedSlices += retries;
    const double hours = static_cast<double>(retries) *
        cost.imageSecondsPerSlice / 3600.0;
    cost.retryHours += hours;
    cost.totalHours += hours;
}

} // namespace scope
} // namespace hifi
