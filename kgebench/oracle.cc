#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "common.h"

namespace kgebench {
namespace {

struct Quat {
  double w, x, y, z;  // 1, i, j, k
};

// Hamilton product a ⊗ b.
Quat Mul(const Quat& a, const Quat& b) {
  return {a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
          a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
          a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
          a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w};
}

Quat Conj(const Quat& q) { return {q.w, -q.x, -q.y, -q.z}; }

// Component d of a row of four dim-vectors.
Quat At(const float* row, int32_t dim, int32_t d) {
  return {double(row[d]), double(row[dim + d]), double(row[2 * dim + d]),
          double(row[3 * dim + d])};
}

const float* EntityRow(const QuaternionParams& p, int32_t id) {
  return p.entities + size_t(id) * size_t(4 * p.dim);
}

const float* RelationRow(const QuaternionParams& p, int32_t id) {
  return p.relations + size_t(id) * size_t(4 * p.dim);
}

uint64_t Key(int32_t entity, int32_t relation) {
  return (uint64_t(uint32_t(relation)) << 32) | uint32_t(entity);
}

std::string Format(const char* fmt, double a, double b, double c = 0.0) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b, c);
  return buffer;
}

}  // namespace

bool ViewQuaternionParams(kge::KgeModel& model, QuaternionParams* out,
                          std::string* error) {
  const std::vector<kge::ParameterBlock*> blocks = model.Blocks();
  if (blocks.size() != 2) {
    *error = "expected an entity and a relation block";
    return false;
  }
  const kge::ParameterBlock& entities = *blocks[0];
  const kge::ParameterBlock& relations = *blocks[1];
  if (entities.row_dim() % 4 != 0 || relations.row_dim() != entities.row_dim()) {
    *error = "rows are not four equal quaternion components";
    return false;
  }
  out->num_entities = int32_t(entities.num_rows());
  out->num_relations = int32_t(relations.num_rows());
  out->dim = int32_t(entities.row_dim() / 4);
  out->entities = entities.Flat().data();
  out->relations = relations.Flat().data();
  return true;
}

double OracleScore(const QuaternionParams& p, int32_t head, int32_t tail,
                   int32_t relation) {
  const float* h = EntityRow(p, head);
  const float* t = EntityRow(p, tail);
  const float* r = RelationRow(p, relation);
  double sum = 0.0;
  for (int32_t d = 0; d < p.dim; ++d) {
    const Quat product =
        Mul(Mul(At(h, p.dim, d), Conj(At(t, p.dim, d))), At(r, p.dim, d));
    sum += product.w;
  }
  return sum;
}

void FoldQuery(const QuaternionParams& p, int32_t entity, int32_t relation,
               bool tail_side, double* q) {
  const float* e = EntityRow(p, entity);
  const float* r = RelationRow(p, relation);
  for (int32_t d = 0; d < p.dim; ++d) {
    const Quat rq = At(r, p.dim, d);
    const Quat eq = At(e, p.dim, d);
    // Re(h t̄ r) = Re(t̄ (r h)) = ⟨t, r h⟩ and = Re(h (t̄ r)) = ⟨h, r̄ t⟩.
    const Quat folded = tail_side ? Mul(rq, eq) : Mul(Conj(rq), eq);
    q[d] = folded.w;
    q[p.dim + d] = folded.x;
    q[2 * p.dim + d] = folded.y;
    q[3 * p.dim + d] = folded.z;
  }
}

void ScoreAll(const QuaternionParams& p, const double* q, double* out) {
  const size_t width = size_t(4 * p.dim);
  for (int32_t c = 0; c < p.num_entities; ++c) {
    const float* row = EntityRow(p, c);
    double sum = 0.0;
    for (size_t i = 0; i < width; ++i) sum += double(row[i]) * q[i];
    out[c] = sum;
  }
}

KnownTriples::KnownTriples(const kge::Dataset& data) {
  for (const std::vector<kge::Triple>* split :
       {&data.train, &data.valid, &data.test}) {
    for (const kge::Triple& t : *split) {
      tails_[Key(t.head, t.relation)].push_back(t.tail);
      heads_[Key(t.tail, t.relation)].push_back(t.head);
    }
  }
}

const std::vector<int32_t>& KnownTriples::Tails(int32_t head,
                                                int32_t relation) const {
  const auto it = tails_.find(Key(head, relation));
  return it == tails_.end() ? empty_ : it->second;
}

const std::vector<int32_t>& KnownTriples::Heads(int32_t tail,
                                                int32_t relation) const {
  const auto it = heads_.find(Key(tail, relation));
  return it == heads_.end() ? empty_ : it->second;
}

RankBand OracleRank(const QuaternionParams& p, const KnownTriples& known,
                    const kge::Triple& triple, bool tail_side, double tol) {
  std::vector<double> q(size_t(4 * p.dim));
  std::vector<double> scores(size_t(p.num_entities));
  const int32_t given = tail_side ? triple.head : triple.tail;
  const int32_t answer = tail_side ? triple.tail : triple.head;
  FoldQuery(p, given, triple.relation, tail_side, q.data());
  ScoreAll(p, q.data(), scores.data());
  std::vector<char> skip(size_t(p.num_entities), 0);
  for (const int32_t other : tail_side
                                 ? known.Tails(triple.head, triple.relation)
                                 : known.Heads(triple.tail, triple.relation)) {
    skip[size_t(other)] = 1;
  }
  skip[size_t(answer)] = 1;
  const double truth = scores[size_t(answer)];
  const double band = tol * (1.0 + std::fabs(truth));
  int64_t surely_better = 0;
  int64_t ambiguous = 0;
  for (int32_t c = 0; c < p.num_entities; ++c) {
    if (skip[size_t(c)]) continue;
    if (scores[size_t(c)] > truth + band) {
      ++surely_better;
    } else if (scores[size_t(c)] >= truth - band) {
      ++ambiguous;
    }
  }
  return {1.0 + double(surely_better),
          1.0 + double(surely_better + ambiguous)};
}

bool CheckTopK(const QuaternionParams& p, int32_t entity, int32_t relation,
               bool tail_side, uint32_t k,
               const std::vector<kge::ScoredEntity>& reply, double tol,
               std::string* why) {
  const size_t expected = std::min<size_t>(k, size_t(p.num_entities));
  if (reply.size() != expected) {
    *why = Format("reply has %.0f entries, expected %.0f", double(reply.size()),
                  double(expected));
    return false;
  }
  std::vector<double> q(size_t(4 * p.dim));
  std::vector<double> scores(size_t(p.num_entities));
  FoldQuery(p, entity, relation, tail_side, q.data());
  ScoreAll(p, q.data(), scores.data());

  std::unordered_set<int32_t> ids;
  double reply_min = INFINITY;
  for (size_t i = 0; i < reply.size(); ++i) {
    const kge::ScoredEntity& entry = reply[i];
    if (entry.entity < 0 || entry.entity >= p.num_entities ||
        !ids.insert(entry.entity).second) {
      *why = Format("entry %.0f has a bad or repeated id %.0f", double(i),
                    double(entry.entity));
      return false;
    }
    if (i > 0 && entry.score > reply[i - 1].score) {
      *why = Format("scores increase at entry %.0f (%.9g)", double(i),
                    double(entry.score));
      return false;
    }
    const double truth = scores[size_t(entry.entity)];
    if (std::fabs(double(entry.score) - truth) > tol * (1.0 + std::fabs(truth))) {
      *why = Format("entry for id %.0f scores %.9g, oracle %.9g",
                    double(entry.entity), double(entry.score), truth);
      return false;
    }
    reply_min = std::min(reply_min, truth);
  }
  // Every candidate that beats the reply's weakest entry by more than
  // the tolerance must be in the reply.
  const double cut = reply_min + tol * (1.0 + std::fabs(reply_min));
  for (int32_t c = 0; c < p.num_entities; ++c) {
    if (scores[size_t(c)] > cut && ids.count(c) == 0) {
      *why = Format("id %.0f (oracle %.9g) is missing; reply minimum %.9g",
                    double(c), scores[size_t(c)], reply_min);
      return false;
    }
  }
  return true;
}

bool CheckLossFalls(const std::vector<double>& loss_history,
                    std::string* why) {
  if (loss_history.size() < 2) {
    *why = "fewer than two epochs";
    return false;
  }
  const double first = loss_history.front();
  const double last = loss_history.back();
  if (!(std::isfinite(first) && std::isfinite(last) && last < first)) {
    *why = Format("loss went from %.9g to %.9g", first, last);
    return false;
  }
  return true;
}

int SelfTestChecks(std::string* log) {
  // A small random quaternion model and dataset from the program.
  kge::WordNetLikeOptions options;
  options.num_entities = 400;
  options.seed = 5;
  const kge::Dataset data = kge::GenerateWordNetLike(options);
  kge::Result<std::unique_ptr<kge::KgeModel>> made = kge::MakeModelByName(
      "quaternion", data.num_entities(), data.num_relations(), 32, 5);
  QuaternionParams params;
  std::string error;
  if (!made.ok() || !ViewQuaternionParams(**made, &params, &error)) {
    *log += "cannot build the self-test model\n";
    return 1;
  }
  const kge::KgeModel& model = **made;
  int misbehaved = 0;
  auto expect = [&](const char* what, bool accepted, bool want) {
    *log += std::string(what) + (accepted ? ": accepted" : ": rejected") +
            (accepted == want ? "\n" : "  <-- WRONG\n");
    if (accepted != want) ++misbehaved;
  };

  // Oracle score agrees with the folded scorer and the program's Score.
  const kge::Triple probe = data.test.front();
  const double direct =
      OracleScore(params, probe.head, probe.tail, probe.relation);
  std::vector<double> q(size_t(4 * params.dim));
  std::vector<double> all(size_t(params.num_entities));
  FoldQuery(params, probe.head, probe.relation, true, q.data());
  ScoreAll(params, q.data(), all.data());
  const double via_tail = all[size_t(probe.tail)];
  FoldQuery(params, probe.tail, probe.relation, false, q.data());
  ScoreAll(params, q.data(), all.data());
  const double via_head = all[size_t(probe.head)];
  const double program = model.Score(probe);
  expect("oracle folds agree with the triple product",
         std::fabs(direct - via_tail) < 1e-9 &&
             std::fabs(direct - via_head) < 1e-9,
         true);
  expect("oracle agrees with the program's Score",
         std::fabs(direct - program) < 1e-5 * (1.0 + std::fabs(direct)),
         true);

  // Top-k: the program's answer passes; a swapped id does not.
  kge::TopKOptions topk;
  topk.k = 10;
  const std::vector<kge::ScoredEntity> reply =
      kge::PredictTails(model, probe.head, probe.relation, topk);
  std::string why;
  expect("true top-k", CheckTopK(params, probe.head, probe.relation, true,
                                 10, reply, 1e-5, &why),
         true);
  std::vector<kge::ScoredEntity> swapped = reply;
  std::swap(swapped[1].entity, swapped[4].entity);
  expect("top-k with two ids swapped",
         CheckTopK(params, probe.head, probe.relation, true, 10, swapped,
                   1e-5, &why),
         false);
  std::vector<kge::ScoredEntity> foreign = reply;
  FoldQuery(params, probe.head, probe.relation, true, q.data());
  ScoreAll(params, q.data(), all.data());
  const int32_t worst = int32_t(
      std::min_element(all.begin(), all.end()) - all.begin());
  foreign[0].entity = worst;
  expect("top-k with an id swapped for a poor candidate",
         CheckTopK(params, probe.head, probe.relation, true, 10, foreign,
                   1e-5, &why),
         false);

  // Ranks: the Evaluator's rank lies in the oracle band; one more does not.
  kge::FilterIndex filter;
  filter.Build(data.train, data.valid, data.test);
  const kge::Evaluator evaluator(&filter, data.num_relations());
  const KnownTriples known(data);
  kge::EvalOptions eval_options;
  int tight = 0;
  bool all_true_accepted = true;
  bool all_off_by_one_rejected = true;
  for (const kge::Triple& triple : data.test) {
    const kge::EvalResult result =
        evaluator.Evaluate(model, {triple}, eval_options);
    const double rank =
        result.per_relation[size_t(triple.relation)].tail_queries.MeanRank();
    const RankBand band = OracleRank(params, known, triple, true, 2e-6);
    all_true_accepted = all_true_accepted && band.Contains(rank);
    if (band.lo == band.hi) {
      ++tight;
      all_off_by_one_rejected =
          all_off_by_one_rejected && !band.Contains(rank + 1.0);
    }
    if (tight >= 20) break;
  }
  expect("Evaluator ranks", all_true_accepted, true);
  expect("ranks off by one", !all_off_by_one_rejected || tight == 0, false);

  // Loss: a falling curve passes; flat and rising ones do not.
  expect("falling loss", CheckLossFalls({0.69, 0.5, 0.3}, &why), true);
  expect("flat loss", CheckLossFalls({0.69, 0.69, 0.69}, &why), false);
  expect("rising loss", CheckLossFalls({0.5, 0.6, 0.7}, &why), false);
  return misbehaved;
}

}  // namespace kgebench
