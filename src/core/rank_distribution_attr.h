// Exact per-tuple rank distributions in the attribute-level model
// (Definition 7; computed as in paper Section 7.2).
//
// For tuple t_i and each support value v of X_i, conditioning on X_i = v
// makes the events "t_j outranks t_i" independent Bernoulli trials across
// j ≠ i; the conditional rank is therefore Poisson-binomial. Mixing the
// conditional distributions by Pr[X_i = v] yields rank(t_i). The total cost
// is O(s N²) per tuple and O(s N³) for all tuples, matching the paper's
// O(N³) bound for constant pdf size s.
//
// Parallel decomposition. The per-tuple DPs are mutually independent and
// write disjoint output rows, so the parallel forms distribute whole
// tuples over worker slots; each worker runs the flat convolution in its
// own arena-backed scratch. No cross-tuple state exists, so results are
// bit-identical for any thread count — see docs/PERFORMANCE.md.

#ifndef URANK_CORE_RANK_DISTRIBUTION_ATTR_H_
#define URANK_CORE_RANK_DISTRIBUTION_ATTR_H_

#include <vector>

#include "core/internal/kernel_arena.h"
#include "core/internal/sorted_pdf.h"
#include "model/attr_model.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

// Sorted pdfs of every tuple of `rel`, in tuple order — the O(N s log s)
// preprocessing every attribute-level DP starts from. Built once and
// cached by PreparedAttrRelation; one-shot entry points build it
// internally.
std::vector<internal::SortedPdf> BuildSortedPdfs(const AttrRelation& rel);

// Rank distribution of tuple `index` given prebuilt sorted pdfs, written
// into `*dist` (resized to max(N, 1)). `*pmf_scratch` is the flat
// Poisson-binomial work buffer — a 64-byte-aligned arena buffer so the
// vector kernels run on aligned scratch; both buffers are reused at
// high-water capacity, so streaming callers perform no per-tuple
// allocation.
void AttrRankDistributionInto(const AttrRelation& rel,
                              const std::vector<internal::SortedPdf>& pdfs,
                              int index, TiePolicy ties,
                              internal::AlignedBuf* pmf_scratch,
                              std::vector<double>* dist);

// Rank distribution of the tuple at `index`: result[r] = Pr[R(t_i) = r] for
// r in [0, N-1]. The default tie policy is the paper's Section 7 choice
// (ties broken by tuple index). Aborts if index is out of range.
std::vector<double> AttrRankDistribution(
    const AttrRelation& rel, int index,
    TiePolicy ties = TiePolicy::kBreakByIndex);

// Rank distributions of every tuple; result[i] is as above. O(s N³).
std::vector<std::vector<double>> AttrRankDistributions(
    const AttrRelation& rel, TiePolicy ties = TiePolicy::kBreakByIndex);

// Parallel form over prebuilt pdfs: per-tuple DPs are distributed over
// PlannedWorkers(par, N, N²) worker slots (the gate counts the N² DP
// cells of the whole matrix, so par.min_parallel_cells is compared with
// N²). `report`, when non-null, is Merge()d with the threads/arena-bytes
// used. Bit-identical to the serial form for any `par`.
std::vector<std::vector<double>> AttrRankDistributions(
    const AttrRelation& rel, const std::vector<internal::SortedPdf>& pdfs,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report);

}  // namespace urank

#endif  // URANK_CORE_RANK_DISTRIBUTION_ATTR_H_
