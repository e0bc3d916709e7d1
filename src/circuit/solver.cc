#include "circuit/solver.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#if HIFI_SIMD_AVX2_COMPILED
#include <immintrin.h>
#endif

namespace hifi
{
namespace circuit
{

namespace
{

/// Pivot magnitude below which a factorization is treated as singular.
constexpr double kPivotTiny = 1e-18;

std::string
upperCased(std::string text)
{
    for (auto &ch : text)
        ch = static_cast<char>(
            std::toupper(static_cast<unsigned char>(ch)));
    return text;
}

} // namespace

const Trace &
TranResult::trace(const std::string &node) const
{
    auto it = traces.find(node);
    if (it == traces.end())
        throw std::out_of_range("TranResult::trace: no node " + node);
    return it->second;
}

double
TranResult::sourceEnergy(const std::string &source_name) const
{
    const Trace &i = trace("I(" + source_name + ")");

    // Resolve the source's voltage trace through the upper-cased name
    // index ("Vpre" drives node "VPRE"; "Vsan" drives node "SAN" via
    // the name without its leading 'V').  Built once per result; both
    // the index build and the old per-call scan iterate the trace map
    // in the same order, so the first case-insensitive match wins
    // either way.
    if (upperIndex_.empty())
        for (const auto &[name, tr] : traces)
            upperIndex_.emplace(upperCased(name), &tr);

    const Trace *v = nullptr;
    auto it = upperIndex_.find(upperCased(source_name));
    if (it == upperIndex_.end() && source_name.size() > 1)
        it = upperIndex_.find(upperCased(source_name.substr(1)));
    if (it != upperIndex_.end())
        v = it->second;
    if (!v)
        throw std::out_of_range(
            "sourceEnergy: cannot locate the voltage trace for " +
            source_name);

    double energy = 0.0;
    for (size_t k = 1; k < i.times.size(); ++k) {
        const double dt = i.times[k] - i.times[k - 1];
        const double p0 = v->values[k - 1] * i.values[k - 1];
        const double p1 = v->values[k] * i.values[k];
        energy += 0.5 * (p0 + p1) * dt;
    }
    return energy;
}

// --- SparseLu --------------------------------------------------------

void
SparseLu::analyze(size_t dim,
                  const std::vector<std::pair<int, int>> &entries)
{
    if (dim == 0)
        throw std::invalid_argument("SparseLu: empty system");
    dim_ = dim;
    const int n = static_cast<int>(dim);

    // Dense boolean working pattern: fine for the tens-of-nodes MNA
    // systems this targets, and only touched here (once per structure).
    std::vector<uint8_t> pat(dim * dim, 0);
    for (const auto &[r, c] : entries) {
        if (r < 0 || c < 0 || r >= n || c >= n)
            throw std::invalid_argument("SparseLu: entry out of range");
        pat[static_cast<size_t>(r) * dim + static_cast<size_t>(c)] = 1;
    }
    auto at = [&](int r, int c) -> uint8_t & {
        return pat[static_cast<size_t>(r) * dim +
                   static_cast<size_t>(c)];
    };

    // Symbolic Markowitz with a static pivot order.  Pivots prefer
    // diagonal or structurally symmetric entries: on MNA matrices the
    // dangerous numerically-vanishing entries (MOSFET gate couplings
    // in cutoff) are exactly the structurally one-sided ones.
    std::vector<uint8_t> rowActive(dim, 1), colActive(dim, 1);
    std::vector<int> pivRow(dim, -1), pivCol(dim, -1);
    std::vector<int> rowCount(dim), colCount(dim);
    for (int k = 0; k < n; ++k) {
        std::fill(rowCount.begin(), rowCount.end(), 0);
        std::fill(colCount.begin(), colCount.end(), 0);
        for (int r = 0; r < n; ++r) {
            if (!rowActive[r])
                continue;
            for (int c = 0; c < n; ++c) {
                if (!colActive[c] || !at(r, c))
                    continue;
                ++rowCount[r];
                ++colCount[c];
            }
        }
        long best = std::numeric_limits<long>::max();
        int bi = -1, bj = -1;
        bool bestDiag = false;
        for (int pass = 0; pass < 2 && bi < 0; ++pass) {
            for (int r = 0; r < n; ++r) {
                if (!rowActive[r])
                    continue;
                for (int c = 0; c < n; ++c) {
                    if (!colActive[c] || !at(r, c))
                        continue;
                    const bool diag = r == c;
                    if (pass == 0 && !diag && !at(c, r))
                        continue; // pass 0: diagonal/symmetric only
                    const long cost =
                        static_cast<long>(rowCount[r] - 1) *
                        static_cast<long>(colCount[c] - 1);
                    if (cost < best ||
                        (cost == best && diag && !bestDiag)) {
                        best = cost;
                        bi = r;
                        bj = c;
                        bestDiag = diag;
                    }
                }
            }
        }
        if (bi < 0)
            throw std::invalid_argument(
                "SparseLu: structurally singular pattern");
        pivRow[k] = bi;
        pivCol[k] = bj;

        // Fill-in of this elimination step.
        for (int r = 0; r < n; ++r) {
            if (!rowActive[r] || r == bi || !at(r, bj))
                continue;
            for (int c = 0; c < n; ++c) {
                if (!colActive[c] || c == bj || !at(bi, c))
                    continue;
                at(r, c) = 1;
            }
        }
        rowActive[bi] = 0;
        colActive[bj] = 0;
    }

    // CSR layout of the full (post-fill) pattern.
    rowPtr_.assign(dim + 1, 0);
    colIdx_.clear();
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c)
            if (at(r, c))
                colIdx_.push_back(c);
        rowPtr_[static_cast<size_t>(r) + 1] =
            static_cast<int>(colIdx_.size());
    }

    // Compile the elimination into flat index programs.  The final
    // pattern restricted to the rows/cols still active at step k is
    // exactly the evolving pattern at step k (fill never touches
    // eliminated rows or columns), so replaying over it is consistent.
    std::vector<int> stepOfCol(dim, -1);
    for (int k = 0; k < n; ++k)
        stepOfCol[pivCol[k]] = k;

    steps_.clear();
    rowOps_.clear();
    pairTarget_.clear();
    pairSrc_.clear();
    uSlots_.clear();
    uVars_.clear();
    rowActive.assign(dim, 1);
    colActive.assign(dim, 1);
    std::vector<int> prSlots, prCols;
    for (int k = 0; k < n; ++k) {
        const int i = pivRow[k], j = pivCol[k];
        Step st;
        st.pivotSlot = slot(i, j);
        st.pivotRow = i;
        st.pivotCol = j;

        prSlots.clear();
        prCols.clear();
        for (int idx = rowPtr_[i]; idx < rowPtr_[i + 1]; ++idx) {
            const int c = colIdx_[idx];
            if (colActive[c] && c != j) {
                prSlots.push_back(idx);
                prCols.push_back(c);
            }
        }

        st.rowOpBegin = static_cast<int>(rowOps_.size());
        for (int r = 0; r < n; ++r) {
            if (!rowActive[r] || r == i)
                continue;
            const int fs = slot(r, j);
            if (fs < 0)
                continue;
            RowOp op;
            op.factorSlot = fs;
            op.row = r;
            op.pairBegin = static_cast<int>(pairTarget_.size());
            for (size_t q = 0; q < prSlots.size(); ++q) {
                pairTarget_.push_back(slot(r, prCols[q]));
                pairSrc_.push_back(prSlots[q]);
            }
            op.pairEnd = static_cast<int>(pairTarget_.size());
            rowOps_.push_back(op);
        }
        st.rowOpEnd = static_cast<int>(rowOps_.size());

        st.uBegin = static_cast<int>(uSlots_.size());
        for (int idx = rowPtr_[i]; idx < rowPtr_[i + 1]; ++idx) {
            const int c = colIdx_[idx];
            if (c != j && stepOfCol[c] > k) {
                uSlots_.push_back(idx);
                uVars_.push_back(c);
            }
        }
        st.uEnd = static_cast<int>(uSlots_.size());
        steps_.push_back(st);

        rowActive[i] = 0;
        colActive[j] = 0;
    }
    scratch_.assign(dim, 0.0);
}

int
SparseLu::slot(int row, int col) const
{
    if (row < 0 || col < 0 || row >= static_cast<int>(dim_) ||
        col >= static_cast<int>(dim_))
        return -1;
    const auto begin = colIdx_.begin() + rowPtr_[row];
    const auto end = colIdx_.begin() + rowPtr_[row + 1];
    const auto it = std::lower_bound(begin, end, col);
    if (it == end || *it != col)
        return -1;
    return static_cast<int>(it - colIdx_.begin());
}

void
SparseLu::factorLanesPortable(double *values, size_t lanes, uint8_t *ok)
{
    const size_t L = lanes;
    laneTmp_.resize(2 * L);
    double *inv = laneTmp_.data();
    double *f = inv + L;
    for (const Step &st : steps_) {
        const double *pv = values + static_cast<size_t>(st.pivotSlot) * L;
        for (size_t l = 0; l < L; ++l) {
            const bool good = ok[l] && std::abs(pv[l]) >= kPivotTiny;
            if (ok[l] && !good)
                ok[l] = 0;
            // Dead lanes get inv = 0: the row operations below then
            // stream every lane branch-free, multiplying dead lanes
            // by zero instead of testing them.
            inv[l] = good ? 1.0 / pv[l] : 0.0;
        }
        for (int oi = st.rowOpBegin; oi < st.rowOpEnd; ++oi) {
            const RowOp &op = rowOps_[oi];
            double *fv = values + static_cast<size_t>(op.factorSlot) * L;
            for (size_t l = 0; l < L; ++l) {
                f[l] = fv[l] * inv[l];
                fv[l] = f[l];
            }
            for (int q = op.pairBegin; q < op.pairEnd; ++q) {
                double *tgt =
                    values + static_cast<size_t>(pairTarget_[q]) * L;
                const double *src =
                    values + static_cast<size_t>(pairSrc_[q]) * L;
                for (size_t l = 0; l < L; ++l)
                    tgt[l] -= f[l] * src[l];
            }
        }
    }
}

#if HIFI_SIMD_AVX2_COMPILED

namespace
{
// Lane groups (of 4 doubles) the AVX2 kernels keep in registers; wider
// batches fall back to the portable forms.
constexpr size_t kMaxLaneGroups = 16;
} // namespace

HIFI_AVX2_TARGET void
SparseLu::factorLanesAvx2(double *values, size_t lanes, uint8_t *ok)
{
    const size_t G = lanes / 4;
    const __m256d tiny = _mm256_set1_pd(kPivotTiny);
    const __m256d absmask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d one = _mm256_set1_pd(1.0);

    // Byte flags -> full-width lane masks, kept in registers across
    // the elimination program and written back at the end.
    __m256d okm[kMaxLaneGroups];
    for (size_t g = 0; g < G; ++g)
        okm[g] = _mm256_castsi256_pd(_mm256_set_epi64x(
            ok[g * 4 + 3] ? -1 : 0, ok[g * 4 + 2] ? -1 : 0,
            ok[g * 4 + 1] ? -1 : 0, ok[g * 4 + 0] ? -1 : 0));

    __m256d inv[kMaxLaneGroups];
    for (const Step &st : steps_) {
        const double *pvp =
            values + static_cast<size_t>(st.pivotSlot) * lanes;
        for (size_t g = 0; g < G; ++g) {
            const __m256d pv = _mm256_loadu_pd(pvp + 4 * g);
            // good = ok && |pivot| >= kPivotTiny (quiet-ordered GE:
            // NaN pivots fail, like the scalar comparison).
            const __m256d good = _mm256_and_pd(
                okm[g], _mm256_cmp_pd(_mm256_and_pd(pv, absmask),
                                      tiny, _CMP_GE_OQ));
            okm[g] = good;
            // Dead lanes get inv = +0.0, the branch-free convention
            // shared with the portable kernels.
            inv[g] =
                _mm256_and_pd(_mm256_div_pd(one, pv), good);
        }
        for (int oi = st.rowOpBegin; oi < st.rowOpEnd; ++oi) {
            const RowOp &op = rowOps_[oi];
            double *fvp =
                values + static_cast<size_t>(op.factorSlot) * lanes;
            for (size_t g = 0; g < G; ++g)
                _mm256_storeu_pd(
                    fvp + 4 * g,
                    _mm256_mul_pd(_mm256_loadu_pd(fvp + 4 * g),
                                  inv[g]));
            for (int q = op.pairBegin; q < op.pairEnd; ++q) {
                double *tgt =
                    values + static_cast<size_t>(pairTarget_[q]) *
                        lanes;
                const double *src =
                    values + static_cast<size_t>(pairSrc_[q]) * lanes;
                for (size_t g = 0; g < G; ++g)
                    _mm256_storeu_pd(
                        tgt + 4 * g,
                        _mm256_sub_pd(
                            _mm256_loadu_pd(tgt + 4 * g),
                            _mm256_mul_pd(
                                _mm256_loadu_pd(fvp + 4 * g),
                                _mm256_loadu_pd(src + 4 * g))));
            }
        }
    }
    for (size_t g = 0; g < G; ++g) {
        const int m = _mm256_movemask_pd(okm[g]);
        for (int j = 0; j < 4; ++j)
            ok[g * 4 + j] = static_cast<uint8_t>((m >> j) & 1);
    }
}

HIFI_AVX2_TARGET void
SparseLu::solveLanesAvx2(const double *values, const double *b,
                         double *x, size_t lanes)
{
    double *y = laneScratch_.data();
    std::copy(b, b + dim_ * lanes, y);
    const size_t G = lanes / 4;
    __m256d piv[kMaxLaneGroups];
    for (const Step &st : steps_) {
        const double *py =
            y + static_cast<size_t>(st.pivotRow) * lanes;
        for (size_t g = 0; g < G; ++g)
            piv[g] = _mm256_loadu_pd(py + 4 * g);
        for (int oi = st.rowOpBegin; oi < st.rowOpEnd; ++oi) {
            const RowOp &op = rowOps_[oi];
            const double *fv =
                values + static_cast<size_t>(op.factorSlot) * lanes;
            double *ry = y + static_cast<size_t>(op.row) * lanes;
            for (size_t g = 0; g < G; ++g)
                _mm256_storeu_pd(
                    ry + 4 * g,
                    _mm256_sub_pd(
                        _mm256_loadu_pd(ry + 4 * g),
                        _mm256_mul_pd(_mm256_loadu_pd(fv + 4 * g),
                                      piv[g])));
        }
    }
    for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
        const Step &st = *it;
        const double *py =
            y + static_cast<size_t>(st.pivotRow) * lanes;
        const double *pv =
            values + static_cast<size_t>(st.pivotSlot) * lanes;
        double *xo = x + static_cast<size_t>(st.pivotCol) * lanes;
        for (size_t g = 0; g < G; ++g) {
            __m256d sum = _mm256_loadu_pd(py + 4 * g);
            for (int q = st.uBegin; q < st.uEnd; ++q) {
                const double *uv =
                    values + static_cast<size_t>(uSlots_[q]) * lanes;
                const double *xv =
                    x + static_cast<size_t>(uVars_[q]) * lanes;
                sum = _mm256_sub_pd(
                    sum, _mm256_mul_pd(_mm256_loadu_pd(uv + 4 * g),
                                       _mm256_loadu_pd(xv + 4 * g)));
            }
            _mm256_storeu_pd(
                xo + 4 * g,
                _mm256_div_pd(sum, _mm256_loadu_pd(pv + 4 * g)));
        }
    }
}

#endif // HIFI_SIMD_AVX2_COMPILED

void
SparseLu::factorLanes(double *values, size_t lanes, uint8_t *ok)
{
    // One lane is the scalar factorization: the same arithmetic
    // without the lane loops.
    if (lanes == 1) {
        if (ok[0] && !factor(values))
            ok[0] = 0;
        return;
    }
#if HIFI_SIMD_AVX2_COMPILED
    if (lanes % 4 == 0 && lanes / 4 <= kMaxLaneGroups &&
        common::simd::avx2()) {
        factorLanesAvx2(values, lanes, ok);
        return;
    }
#endif
    factorLanesPortable(values, lanes, ok);
}

void
SparseLu::solveLanesPortable(const double *values, const double *b,
                             double *x, size_t lanes)
{
    const size_t L = lanes;
    double *y = laneScratch_.data();
    std::copy(b, b + dim_ * L, y);
    laneTmp_.resize(2 * L);
    double *piv = laneTmp_.data();
    double *sum = piv + L;
    // Forward: replay the row operations on every lane of the RHS.
    for (const Step &st : steps_) {
        const double *py = y + static_cast<size_t>(st.pivotRow) * L;
        for (size_t l = 0; l < L; ++l)
            piv[l] = py[l];
        for (int oi = st.rowOpBegin; oi < st.rowOpEnd; ++oi) {
            const RowOp &op = rowOps_[oi];
            const double *fv =
                values + static_cast<size_t>(op.factorSlot) * L;
            double *ry = y + static_cast<size_t>(op.row) * L;
            for (size_t l = 0; l < L; ++l)
                ry[l] -= fv[l] * piv[l];
        }
    }
    // Backward: eliminate unknowns in reverse pivot order.
    for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
        const Step &st = *it;
        const double *py = y + static_cast<size_t>(st.pivotRow) * L;
        for (size_t l = 0; l < L; ++l)
            sum[l] = py[l];
        for (int q = st.uBegin; q < st.uEnd; ++q) {
            const double *uv =
                values + static_cast<size_t>(uSlots_[q]) * L;
            const double *xv = x + static_cast<size_t>(uVars_[q]) * L;
            for (size_t l = 0; l < L; ++l)
                sum[l] -= uv[l] * xv[l];
        }
        const double *pv =
            values + static_cast<size_t>(st.pivotSlot) * L;
        double *xo = x + static_cast<size_t>(st.pivotCol) * L;
        for (size_t l = 0; l < L; ++l)
            xo[l] = sum[l] / pv[l];
    }
}

void
SparseLu::solveLanes(const double *values, const double *b, double *x,
                     size_t lanes)
{
    if (lanes == 1) {
        solve(values, b, x);
        return;
    }
    if (laneScratch_.size() < dim_ * lanes)
        laneScratch_.resize(dim_ * lanes);
#if HIFI_SIMD_AVX2_COMPILED
    if (lanes % 4 == 0 && lanes / 4 <= kMaxLaneGroups &&
        common::simd::avx2()) {
        solveLanesAvx2(values, b, x, lanes);
        return;
    }
#endif
    solveLanesPortable(values, b, x, lanes);
}

bool
SparseLu::factor(double *values)
{
    for (const Step &st : steps_) {
        const double p = values[st.pivotSlot];
        if (std::abs(p) < kPivotTiny)
            return false;
        const double inv = 1.0 / p;
        for (int oi = st.rowOpBegin; oi < st.rowOpEnd; ++oi) {
            const RowOp &op = rowOps_[oi];
            const double f = values[op.factorSlot] * inv;
            values[op.factorSlot] = f;
            for (int q = op.pairBegin; q < op.pairEnd; ++q)
                values[pairTarget_[q]] -= f * values[pairSrc_[q]];
        }
    }
    return true;
}

void
SparseLu::solve(const double *values, const double *b, double *x)
{
    double *y = scratch_.data();
    std::copy(b, b + dim_, y);
    // Forward: replay the row operations on the RHS.
    for (const Step &st : steps_) {
        const double piv = y[st.pivotRow];
        for (int oi = st.rowOpBegin; oi < st.rowOpEnd; ++oi) {
            const RowOp &op = rowOps_[oi];
            y[op.row] -= values[op.factorSlot] * piv;
        }
    }
    // Backward: eliminate unknowns in reverse pivot order.
    for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
        const Step &st = *it;
        double sum = y[st.pivotRow];
        for (int q = st.uBegin; q < st.uEnd; ++q)
            sum -= values[uSlots_[q]] * x[uVars_[q]];
        x[st.pivotCol] = sum / values[st.pivotSlot];
    }
}

// --- MOSFET model ----------------------------------------------------

MosEval
evalMosfet(const Mosfet &m, double vd, double vg, double vs)
{
    return evalMosfet(m, m.vthDelta, vd, vg, vs);
}

MosEval
evalMosfet(const Mosfet &m, double vth_delta, double vd, double vg,
           double vs)
{
    const double sign = (m.model.type == MosType::Nmos) ? 1.0 : -1.0;

    // Map to an NMOS-equivalent frame (negate voltages for PMOS).
    double eq_d = sign * vd;
    double eq_g = sign * vg;
    double eq_s = sign * vs;

    // The device is symmetric: operate on (high, low) terminals.
    const bool swapped = eq_d < eq_s;
    if (swapped)
        std::swap(eq_d, eq_s);

    const double vgs = eq_g - eq_s;
    const double vds = eq_d - eq_s;
    const double vth = m.model.vth + vth_delta;
    const double beta = m.model.kp * m.wOverL();
    const double vov = vgs - vth;

    double id = 0.0, gm = 0.0, gds = 0.0;
    if (vov <= 0.0) {
        // Cutoff: tiny output conductance keeps the Jacobian regular.
        gds = 1e-12;
        id = gds * vds;
    } else if (vds < vov) {
        // Linear (triode) region.
        id = beta * (vov * vds - 0.5 * vds * vds);
        gm = beta * vds;
        gds = beta * (vov - vds);
    } else {
        // Saturation with channel-length modulation.
        const double lam = m.model.lambda;
        id = 0.5 * beta * vov * vov * (1.0 + lam * vds);
        gm = beta * vov * (1.0 + lam * vds);
        gds = 0.5 * beta * vov * vov * lam;
    }

    // Map back: current into the *actual* drain terminal.
    const double s = swapped ? -1.0 : 1.0;
    MosEval ev;
    ev.id = sign * s * id;
    // d(eq voltage)/d(actual voltage) = sign, and I_D = sign*s*id, so
    // the sign factors cancel into s alone.
    // Under a swap the actual drain is the low terminal of the channel,
    // whose partial is -(gm + gds); the sign factors from the PMOS
    // voltage negation cancel, leaving only the swap factor s.
    ev.dIdVd = s * (swapped ? -(gm + gds) : gds);
    ev.dIdVg = s * gm;
    ev.dIdVs = s * (swapped ? gds : -(gm + gds));
    return ev;
}

// --- MnaStructure ----------------------------------------------------

namespace
{

long
rowOf(NodeId n)
{
    return n == kGround ? -1 : static_cast<long>(n - 1);
}

} // namespace

MnaStructure::MnaStructure(const Netlist &netlist) : net(netlist)
{
    const size_t num_nodes = net.numNodes(); // includes ground
    nv = num_nodes - 1;
    ns = net.vsources().size();
    dim = nv + ns;
    if (dim == 0)
        throw std::invalid_argument("Simulator: empty netlist");

    // Structural pattern, mirroring the stamping below.
    std::vector<std::pair<int, int>> entries;
    auto add = [&](long r, long c) {
        if (r >= 0 && c >= 0)
            entries.emplace_back(static_cast<int>(r),
                                 static_cast<int>(c));
    };
    for (size_t n = 0; n < nv; ++n)
        add(static_cast<long>(n), static_cast<long>(n));
    for (const auto &r : net.resistors()) {
        const long ra = rowOf(r.a), rb = rowOf(r.b);
        add(ra, ra);
        add(rb, rb);
        add(ra, rb);
        add(rb, ra);
    }
    for (const auto &c : net.capacitors()) {
        const long ra = rowOf(c.a), rb = rowOf(c.b);
        add(ra, ra);
        add(rb, rb);
        add(ra, rb);
        add(rb, ra);
    }
    for (const auto &m : net.mosfets()) {
        const long rd = rowOf(m.drain), rg = rowOf(m.gate),
                   rs = rowOf(m.source);
        for (const long row : {rd, rs})
            for (const long col : {rd, rg, rs})
                add(row, col);
    }
    for (size_t si = 0; si < ns; ++si) {
        const auto &src = net.vsources()[si];
        const long brow = static_cast<long>(nv + si);
        const long rp = rowOf(src.pos), rn = rowOf(src.neg);
        add(rp, brow);
        add(brow, rp);
        add(rn, brow);
        add(brow, rn);
    }
    lu.analyze(dim, entries);

    // Stamp slot tables over the analyzed pattern.
    auto slotOf = [&](long r, long c) -> int {
        return (r >= 0 && c >= 0)
            ? lu.slot(static_cast<int>(r), static_cast<int>(c))
            : -1;
    };
    gminSlots.resize(nv);
    for (size_t n = 0; n < nv; ++n)
        gminSlots[n] =
            slotOf(static_cast<long>(n), static_cast<long>(n));
    resistorSlots.clear();
    for (const auto &r : net.resistors()) {
        const long ra = rowOf(r.a), rb = rowOf(r.b);
        resistorSlots.push_back({slotOf(ra, ra), slotOf(rb, rb),
                                 slotOf(ra, rb), slotOf(rb, ra)});
    }
    capacitorSlots.clear();
    for (const auto &c : net.capacitors()) {
        const long ra = rowOf(c.a), rb = rowOf(c.b);
        capacitorSlots.push_back({slotOf(ra, ra), slotOf(rb, rb),
                                  slotOf(ra, rb), slotOf(rb, ra), ra,
                                  rb});
    }
    mosfetSlots.clear();
    for (const auto &m : net.mosfets()) {
        const long rows[2] = {rowOf(m.drain), rowOf(m.source)};
        const long cols[3] = {rowOf(m.drain), rowOf(m.gate),
                              rowOf(m.source)};
        MosfetSlots ms;
        for (int r = 0; r < 2; ++r) {
            ms.rhs[r] = rows[r];
            for (int c = 0; c < 3; ++c)
                ms.m[r][c] = slotOf(rows[r], cols[c]);
        }
        mosfetSlots.push_back(ms);
    }
    sourceSlots.clear();
    for (size_t si = 0; si < ns; ++si) {
        const auto &src = net.vsources()[si];
        const long brow = static_cast<long>(nv + si);
        const long rp = rowOf(src.pos), rn = rowOf(src.neg);
        sourceSlots.push_back({slotOf(rp, brow), slotOf(brow, rp),
                               slotOf(rn, brow), slotOf(brow, rn),
                               nv + si});
    }
}

void
MnaStructure::assembleBase(const TranParams &params, bool step0,
                           std::vector<double> &base) const
{
    std::fill(base.begin(), base.end(), 0.0);

    // gmin to ground on every node.
    for (size_t n = 0; n < nv; ++n)
        base[gminSlots[n]] += params.gmin;

    // Resistors.
    for (size_t ri = 0; ri < resistorSlots.size(); ++ri) {
        const auto &sl = resistorSlots[ri];
        const double g = 1.0 / net.resistors()[ri].ohms;
        if (sl.aa >= 0)
            base[sl.aa] += g;
        if (sl.bb >= 0)
            base[sl.bb] += g;
        if (sl.ab >= 0)
            base[sl.ab] -= g;
        if (sl.ba >= 0)
            base[sl.ba] -= g;
    }

    // Capacitor companion conductances (the companion *current* is
    // per-step state and lives in the RHS, not here).  At step 0 the
    // conductance is scaled up to pin the initial condition.
    const double k =
        params.integrator == Integrator::Trapezoidal ? 2.0 : 1.0;
    const double scale = step0 ? 1e3 : 1.0;
    for (size_t ci = 0; ci < capacitorSlots.size(); ++ci) {
        const auto &sl = capacitorSlots[ci];
        const double geq =
            scale * k * net.capacitors()[ci].farads / params.dt;
        if (sl.aa >= 0)
            base[sl.aa] += geq;
        if (sl.bb >= 0)
            base[sl.bb] += geq;
        if (sl.ab >= 0)
            base[sl.ab] -= geq;
        if (sl.ba >= 0)
            base[sl.ba] -= geq;
    }

    // Voltage-source incidence.
    for (const auto &sl : sourceSlots) {
        if (sl.pb >= 0) {
            base[sl.pb] += 1.0;
            base[sl.bp] += 1.0;
        }
        if (sl.nb >= 0) {
            base[sl.nb] -= 1.0;
            base[sl.bn] -= 1.0;
        }
    }
}

void
solveDenseCsr(const SparseLu &lu, const double *vals,
              const double *rhs, double *x, double *a, double *b)
{
    const size_t n = lu.dim();
    std::fill(a, a + n * n, 0.0);
    for (size_t row = 0; row < n; ++row) {
        // Scatter the CSR row into the dense scratch.
        // (lu keeps the pattern; fill slots hold zeros.)
        for (int idx = lu.rowPtr()[row]; idx < lu.rowPtr()[row + 1];
             ++idx)
            a[row * n + static_cast<size_t>(lu.colIdx()[idx])] =
                vals[static_cast<size_t>(idx)];
    }
    std::copy(rhs, rhs + n, b);

    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        double best = std::abs(a[col * n + col]);
        for (size_t row = col + 1; row < n; ++row) {
            if (std::abs(a[row * n + col]) > best) {
                best = std::abs(a[row * n + col]);
                pivot = row;
            }
        }
        if (best < kPivotTiny)
            throw std::runtime_error("solveDenseCsr: singular matrix");
        if (pivot != col) {
            std::swap_ranges(a + pivot * n, a + (pivot + 1) * n,
                             a + col * n);
            std::swap(b[pivot], b[col]);
        }
        for (size_t row = col + 1; row < n; ++row) {
            const double f = a[row * n + col] / a[col * n + col];
            if (f == 0.0)
                continue;
            for (size_t k = col; k < n; ++k)
                a[row * n + k] -= f * a[col * n + k];
            b[row] -= f * b[col];
        }
    }
    for (size_t i = n; i-- > 0;) {
        double sum = b[i];
        for (size_t k = i + 1; k < n; ++k)
            sum -= a[i * n + k] * x[k];
        x[i] = sum / a[i * n + i];
    }
}

} // namespace circuit
} // namespace hifi
