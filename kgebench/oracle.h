// The benchmark's oracle: a plain-loop, double-precision scorer of the
// paper's quaternion model, S(h, t, r) = Re(Σ_d h_d ⊗ conj(t_d) ⊗ r_d)
// with the Hamilton product, written apart from the program's
// weight-table engine and SIMD kernels. It reads the model's parameter
// blocks and recomputes filtered ranks and top-k lists, against which
// the program's Evaluator and kge_serve replies are checked.
#ifndef KGEBENCH_ORACLE_H_
#define KGEBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kge.h"

namespace kgebench {

// Read-only view of a quaternion model's parameters. Each entity and
// relation row holds four `dim`-vectors: the 1, i, j and k components.
struct QuaternionParams {
  int32_t num_entities = 0;
  int32_t num_relations = 0;
  int32_t dim = 0;
  const float* entities = nullptr;
  const float* relations = nullptr;
};

// Views `model`'s entity and relation blocks (the model must be the
// factory's "quaternion" model and outlive the view).
bool ViewQuaternionParams(kge::KgeModel& model, QuaternionParams* out,
                          std::string* error);

// S(h, t, r) by the literal triple Hamilton product, per dimension.
double OracleScore(const QuaternionParams& p, int32_t head, int32_t tail,
                   int32_t relation);

// Folded query of one ranking side: for tail queries q_d = r_d ⊗ h_d and
// S = Σ_d ⟨t_d, q_d⟩; for head queries q_d = conj(r_d) ⊗ t_d and
// S = Σ_d ⟨h_d, q_d⟩. `q` holds 4·dim doubles in row layout.
void FoldQuery(const QuaternionParams& p, int32_t entity, int32_t relation,
               bool tail_side, double* q);
// Scores of every entity for a folded query (num_entities doubles).
void ScoreAll(const QuaternionParams& p, const double* q, double* out);

// Known true triples of all splits, for the filtered protocol.
class KnownTriples {
 public:
  explicit KnownTriples(const kge::Dataset& data);
  // Known tails of (head, relation) / heads of (tail, relation).
  const std::vector<int32_t>& Tails(int32_t head, int32_t relation) const;
  const std::vector<int32_t>& Heads(int32_t tail, int32_t relation) const;

 private:
  std::unordered_map<uint64_t, std::vector<int32_t>> tails_;
  std::unordered_map<uint64_t, std::vector<int32_t>> heads_;
  std::vector<int32_t> empty_;
};

// The admissible range of the filtered, tie-averaged rank
// 1 + |better| + |equal|/2 of one query: candidates whose oracle score
// lies within `tol` of the true answer's may fall on either side of it
// in the program's float scores, so any rank in [lo, hi] is correct.
struct RankBand {
  double lo = 0.0;
  double hi = 0.0;
  bool Contains(double rank) const { return rank >= lo && rank <= hi; }
};
RankBand OracleRank(const QuaternionParams& p, const KnownTriples& known,
                    const kge::Triple& triple, bool tail_side, double tol);

// Checks one top-k reply for (entity, relation, side) against a brute
// force over every entity: k distinct entries in non-increasing score
// order, each score equal to the oracle's for its id within `tol`, and
// the set equal to the oracle's top k up to ties within `tol`. Returns
// false with a reason in `why`.
bool CheckTopK(const QuaternionParams& p, int32_t entity, int32_t relation,
               bool tail_side, uint32_t k,
               const std::vector<kge::ScoredEntity>& reply, double tol,
               std::string* why);

// Training loss must fall from the first epoch to the last.
bool CheckLossFalls(const std::vector<double>& loss_history,
                    std::string* why);

// Runs `fn(i)` for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, int threads, const Fn& fn) {
  const size_t count = std::min<size_t>(size_t(std::max(threads, 1)), n);
  if (count <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> pool;
  for (size_t w = 0; w < count; ++w) {
    pool.emplace_back([&fn, n, count, w] {
      for (size_t i = w; i < n; i += count) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

// Self-test of the checks: a swapped top-k id, an off-by-one rank and a
// loss that does not fall must each be rejected, and the untouched
// inputs accepted. Returns the number of checks that misbehaved.
int SelfTestChecks(std::string* log);

}  // namespace kgebench

#endif  // KGEBENCH_ORACLE_H_
