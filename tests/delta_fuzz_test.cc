// Differential fuzzer for incremental confidence maintenance: random
// DeltaBatch sequences interleaved with confidence queries, asserting
// after every batch that
//
//   - the incremental path (session's MaterializedConf cache, which
//     only re-scans delta-dirtied clusters) is BIT-IDENTICAL to a
//     scratch recompute with no cache — for CONF, APPROX CONF (exact
//     phase), ECOUNT and ESUM;
//   - serialize → deserialize → apply reproduces the exact same
//     database state as applying the original batch (the WAL-replay
//     contract), including after mid-batch failures, for every op kind:
//     relation create/drop and domain-predicate ENFORCE included;
//   - hostile WAL bytes (every truncation and every single-byte flip of
//     a batch holding every op kind) decode to a ParseError or a valid
//     batch, never a crash.
//
// MAYBMS_DELTA_FUZZ_ITERS raises the iteration budget for the long
// `ctest -L fuzz` entry.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/approx_conf.h"
#include "core/confidence.h"
#include "core/delta.h"
#include "core/materialized_conf.h"
#include "sql/session.h"
#include "storage/snapshot_io.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

using testing_util::DbsExactlyEqual;
using testing_util::RandomWsd;
using testing_util::RandomWsdOptions;

size_t IterationBudget(const char* env_var, size_t default_iters) {
  const char* env = getenv(env_var);
  if (!env) return default_iters;
  long v = strtol(env, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : default_iters;
}

/// A random domain predicate over `schema`'s columns, drawing from every
/// ExprKind. Type mismatches are possible on purpose (they fail the
/// ENFORCE identically on both replicas).
ExprPtr RandomPredicate(Rng* rng, const Schema& schema, int depth) {
  auto column = [&] {
    return Expr::Column(schema.attr(rng->NextBelow(schema.size())).name);
  };
  auto literal = [&] {
    return Expr::Const(Value::Int(static_cast<int64_t>(rng->NextBelow(4))));
  };
  const uint64_t pick = depth >= 3 ? rng->NextBelow(3) : rng->NextBelow(7);
  switch (pick) {
    case 0:
      return Expr::Compare(CompareOp::kGe, column(), literal());
    case 1:
      return Expr::IsNull(column(), rng->NextBernoulli(0.5));
    case 2:
      return Expr::In(column(), {Value::Int(1), Value::String("b")});
    case 3:
      return Expr::And(RandomPredicate(rng, schema, depth + 1),
                       RandomPredicate(rng, schema, depth + 1));
    case 4:
      return Expr::Or(RandomPredicate(rng, schema, depth + 1),
                      RandomPredicate(rng, schema, depth + 1));
    case 5:
      return Expr::Not(RandomPredicate(rng, schema, depth + 1));
    default:
      return Expr::Compare(CompareOp::kLt,
                           Expr::Arith(ArithOp::kAdd, column(), literal()),
                           literal());
  }
}

/// One random delta op against the session's current state. Ops may be
/// invalid (evicting a missing relation, reweighting with bad mass,
/// creating a relation twice) — deliberately: failed batches must fail
/// identically on both replicas and leave identical states behind.
void AddRandomOp(Rng* rng, const WsdDb& db, DeltaBatch* batch) {
  const std::vector<std::string> rels = db.RelationNames();
  if (rels.empty() || rng->NextBelow(16) == 0) {
    batch->CreateRelation(
        "x" + std::to_string(rng->NextBelow(3)),
        Schema({{"a", ValueType::kInt}, {"b", ValueType::kString}}));
    return;
  }
  const std::string rel = rels[rng->NextBelow(rels.size())];
  const WsdRelation* r = db.GetRelation(rel).value();
  if (rels.size() > 1 && rng->NextBelow(24) == 0) {
    batch->DropRelation(rel);
    return;
  }
  if (rng->NextBelow(12) == 0) {
    batch->Enforce(Constraint::Domain(
        rel, RandomPredicate(rng, r->schema(), /*depth=*/0), "fuzz"));
    return;
  }
  const uint64_t kind = rng->NextBelow(10);
  if (kind < 5) {  // insert a fresh row, ~half its cells or-sets
    std::vector<CellSpec> cells;
    for (size_t c = 0; c < r->schema().size(); ++c) {
      const bool is_str = r->schema().attr(c).type == ValueType::kString;
      auto value = [&] {
        int v = static_cast<int>(rng->NextBelow(4));
        return is_str ? Value::String(std::string(1, char('a' + v)))
                      : Value::Int(v);
      };
      if (rng->NextBernoulli(0.5)) {
        size_t k = 2 + rng->NextBelow(2);
        std::vector<double> probs = rng->NextProbabilities(static_cast<int>(k));
        std::vector<Alternative> alts;
        for (size_t a = 0; a < k; ++a) alts.push_back({value(), probs[a]});
        cells.push_back(CellSpec::OrSet(std::move(alts)));
      } else {
        cells.push_back(CellSpec::Certain(value()));
      }
    }
    batch->Insert(rel, std::move(cells));
  } else if (kind < 7) {  // retire the oldest row(s)
    batch->EvictOldest(rel, 1 + rng->NextBelow(2));
  } else if (kind < 9) {  // reweight a live component
    const std::vector<ComponentId> live = db.LiveComponents();
    if (live.empty()) {
      batch->EvictOldest(rel, 1);
      return;
    }
    const ComponentId cid = live[rng->NextBelow(live.size())];
    const size_t rows = db.component(cid).NumRows();
    batch->Reweight(cid, rng->NextProbabilities(static_cast<int>(rows)));
  } else {  // repair on the first column (fails when it is uncertain)
    batch->RepairKey(rel, {r->schema().attr(0).name});
  }
}

TEST(DeltaFuzz, IncrementalEqualsScratchBitForBit) {
  const size_t iters = IterationBudget("MAYBMS_DELTA_FUZZ_ITERS", 25);
  Rng rng(20260808);
  uint64_t cache_activity = 0;
  for (size_t iter = 0; iter < iters; ++iter) {
    RandomWsdOptions opt;
    opt.num_relations = 1 + rng.NextBelow(2);
    opt.max_tuples = 4;
    sql::Session session(RandomWsd(&rng, opt));
    ASSERT_TRUE(session.options().materialize_conf);
    MaterializedConf* cache = session.conf_cache();
    ASSERT_NE(cache, nullptr);

    // The shadow replica sees every batch through its WAL encoding.
    WsdDb shadow(session.db());

    const size_t batches = 3 + rng.NextBelow(4);
    for (size_t b = 0; b < batches; ++b) {
      DeltaBatch batch;
      const size_t ops = 1 + rng.NextBelow(3);
      for (size_t o = 0; o < ops; ++o) {
        AddRandomOp(&rng, session.db(), &batch);
      }

      auto direct = session.ApplyDelta(batch);
      auto payload = batch.Serialize();
      MAYBMS_ASSERT_OK(payload.status());
      auto decoded = DeltaBatch::Deserialize(*payload);
      MAYBMS_ASSERT_OK(decoded.status());
      auto replayed = shadow.ApplyDelta(*decoded);

      // Identical outcome — success or failure — and identical state,
      // including the half-applied prefix of a failed batch.
      ASSERT_EQ(direct.ok(), replayed.ok())
          << "iter " << iter << " batch " << b << ":\n"
          << batch.ToString() << direct.status().ToString() << " vs "
          << replayed.status().ToString();
      ASSERT_TRUE(DbsExactlyEqual(session.db(), shadow))
          << "iter " << iter << " batch " << b << " diverged:\n"
          << batch.ToString();
      if (direct.ok()) {
        ASSERT_EQ(direct->tuples_inserted, replayed->tuples_inserted);
        ASSERT_EQ(direct->dirty_components, replayed->dirty_components);
        ASSERT_EQ(direct->removed_components, replayed->removed_components);
      }

      // Incremental vs scratch, bit for bit, on every relation.
      for (const std::string& rel : session.db().RelationNames()) {
        ConfidenceOptions incr;
        incr.cache = cache;
        ConfidenceOptions scratch;  // cache = nullptr

        auto conf_incr = ConfTable(session.db(), rel, incr);
        auto conf_scratch = ConfTable(session.db(), rel, scratch);
        ASSERT_EQ(conf_incr.ok(), conf_scratch.ok());
        if (conf_incr.ok()) {
          ASSERT_EQ(conf_incr->ToString(), conf_scratch->ToString())
              << "CONF diverged on " << rel << " at iter " << iter;
        }

        auto ecount_incr = ExpectedCount(session.db(), rel, incr);
        auto ecount_scratch = ExpectedCount(session.db(), rel, scratch);
        ASSERT_EQ(ecount_incr.ok(), ecount_scratch.ok());
        if (ecount_incr.ok()) {
          ASSERT_EQ(*ecount_incr, *ecount_scratch)
              << "ECOUNT diverged on " << rel << " at iter " << iter;
        }

        const WsdRelation* wr = session.db().GetRelation(rel).value();
        for (size_t c = 0; c < wr->schema().size(); ++c) {
          if (wr->schema().attr(c).type != ValueType::kInt) continue;
          const std::string& col = wr->schema().attr(c).name;
          auto esum_incr = ExpectedSum(session.db(), rel, col, incr);
          auto esum_scratch = ExpectedSum(session.db(), rel, col, scratch);
          ASSERT_EQ(esum_incr.ok(), esum_scratch.ok());
          if (esum_incr.ok()) {
            ASSERT_EQ(*esum_incr, *esum_scratch)
                << "ESUM(" << col << ") diverged on " << rel;
          }
          break;
        }

        ApproxOptions approx_incr;
        approx_incr.seed = 7;
        approx_incr.cache = cache;
        ApproxOptions approx_scratch;
        approx_scratch.seed = 7;
        auto ap_incr = ApproxConfTable(session.db(), rel, approx_incr);
        auto ap_scratch = ApproxConfTable(session.db(), rel, approx_scratch);
        ASSERT_EQ(ap_incr.ok(), ap_scratch.ok());
        if (ap_incr.ok()) {
          ASSERT_EQ(ap_incr->ToString(), ap_scratch->ToString())
              << "APPROX CONF diverged on " << rel << " at iter " << iter;
        }
      }
    }
    // Not every generated db admits a successful confidence query
    // (some random states make every query error), so the exercised-ness
    // check is aggregate, not per-iteration.
    cache_activity += cache->GetStats().hits + cache->GetStats().misses;
  }
  // The cache must actually be exercised for the comparison to mean
  // anything; re-issued queries over unchanged relations hit.
  EXPECT_GT(cache_activity, 0u);
}

// Every op kind, with a domain predicate covering every ExprKind: the
// corpus the hostile-bytes sweep mutates.
DeltaBatch EveryOpKindBatch() {
  ExprPtr pred = Expr::And(
      Expr::Not(Expr::IsNull(Expr::Column("k"), /*negated=*/false)),
      Expr::Or(Expr::Compare(CompareOp::kGt,
                             Expr::Arith(ArithOp::kMul, Expr::Column("k"),
                                         Expr::Const(Value::Int(2))),
                             Expr::Const(Value::Double(0.5))),
               Expr::In(Expr::Column("v"),
                        {Value::String("a"), Value::Null()})));
  DeltaBatch batch;
  batch.CreateRelation("t", Schema({{"k", ValueType::kInt},
                                    {"v", ValueType::kString}}))
      .Insert("t", {CellSpec::Certain(Value::Int(1)),
                    CellSpec::OrSet({{Value::String("a"), 0.5},
                                     {Value::String("b"), 0.5}})})
      .Reweight(0, {0.25, 0.75})
      .SetCell(0, 1, 0, Value::String("c"))
      .RepairKey("t", {"k"}, "")
      .Enforce(Constraint::Key("t", {"k"}, "pk"))
      .Enforce(Constraint::FunctionalDependency("t", {"k"}, {"v"}, "fd"))
      .Enforce(Constraint::Domain("t", pred, "dom"))
      .EvictOldest("t", 1)
      .DropRelation("t");
  return batch;
}

// A decoded variant must be a well-formed batch: it re-encodes, and the
// re-encoding is a fixed point.
void ExpectWellFormed(const DeltaBatch& batch, const std::string& where) {
  auto payload = batch.Serialize();
  ASSERT_TRUE(payload.ok()) << where << ": " << payload.status().ToString();
  auto again = DeltaBatch::Deserialize(*payload);
  ASSERT_TRUE(again.ok()) << where << ": " << again.status().ToString();
  auto twice = again->Serialize();
  ASSERT_TRUE(twice.ok()) << where;
  EXPECT_EQ(*twice, *payload) << where;
}

TEST(DeltaFuzz, HostileBytesYieldParseErrorOrValidBatch) {
  auto payload = EveryOpKindBatch().Serialize();
  MAYBMS_ASSERT_OK(payload.status());
  const std::string& bytes = *payload;

  size_t parse_errors = 0;
  auto check = [&](const std::string& variant, const std::string& where) {
    auto decoded = DeltaBatch::Deserialize(variant);
    if (decoded.ok()) {
      ExpectWellFormed(*decoded, where);
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << where;
      ++parse_errors;
    }
  };

  for (size_t len = 0; len < bytes.size(); ++len) {
    check(bytes.substr(0, len), "truncated to " + std::to_string(len));
  }
  // Every single-byte flip of every position; the XOR masks cover the
  // low bit (adjacent tags), the high bit (huge counts) and all bits.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::string variant = bytes;
      variant[pos] = static_cast<char>(variant[pos] ^ mask);
      check(variant, "byte " + std::to_string(pos) + " ^ " +
                         std::to_string(mask));
    }
  }
  // Every strict prefix is missing bytes, so none may decode.
  EXPECT_GE(parse_errors, bytes.size());

  // A nesting bomb: a chain of NOT nodes far past the decoder's cap
  // must be refused without exhausting the stack.
  std::string bomb;
  PutPod(&bomb, uint32_t{1});  // version
  PutPod(&bomb, uint32_t{1});  // one op
  PutPod(&bomb, uint8_t{6});   // enforce
  PutPod(&bomb, static_cast<uint8_t>(ConstraintKind::kDomain));
  PutLenString(&bomb, "t");
  PutLenString(&bomb, "bomb");
  PutPod(&bomb, uint32_t{0});
  PutPod(&bomb, uint32_t{0});
  bomb.append(1 << 20, static_cast<char>(ExprKind::kNot));
  EXPECT_EQ(DeltaBatch::Deserialize(bomb).status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace maybms
