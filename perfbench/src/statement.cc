#include "statement.h"

#include <cmath>

#include "core/approx_conf.h"
#include "core/cluster.h"
#include "core/confidence.h"
#include "core/lifted_executor.h"
#include "gen/census.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "trace.h"

namespace perfbench {

using maybms::CellSpec;
using maybms::DeltaBatch;
using maybms::Relation;
using maybms::Result;
using maybms::Status;
using maybms::Value;

namespace {

constexpr size_t kBatchRows = 512;

std::string CreateTableSql(const maybms::Relation& rel) {
  std::string sql = "CREATE TABLE " + rel.name() + " (";
  const auto& attrs = rel.schema().attrs();
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i) sql += ", ";
    sql += attrs[i].name;
    sql += attrs[i].type == maybms::ValueType::kString ? " TEXT" : " INT";
  }
  return sql + ")";
}

}  // namespace

CensusInput MakeCensus(uint64_t seed, size_t records, double noise) {
  const Relation census = maybms::GenerateCensus({records, seed});
  const Relation states = maybms::GenerateStates();
  InputRng rng(seed ^ 0x6e6f697365ULL);
  CensusInput in;
  in.ddl = {CreateTableSql(census), CreateTableSql(states)};
  for (size_t r = 0; r < census.NumRows(); ++r) {
    if (r % kBatchRows == 0) in.batches.emplace_back();
    std::vector<CellSpec> cells;
    const maybms::Tuple& row = census.row(r);
    for (size_t c = 0; c < row.size(); ++c) {
      if (c == 0 || rng.Uniform() >= noise) {
        cells.push_back(CellSpec::Certain(row[c]));
        continue;
      }
      const size_t k = 2 + rng.Below(3);
      std::vector<maybms::Alternative> alts;
      double total = 0.0;
      std::vector<double> w(k);
      for (double& x : w) total += x = 1.0 + static_cast<double>(rng.Below(8));
      for (size_t i = 0; i < k; ++i) {
        const Value v = i == 0 ? row[c] : census.row(rng.Below(records))[c];
        alts.push_back({v, w[i] / total});
      }
      cells.push_back(CellSpec::OrSet(std::move(alts)));
    }
    in.batches.back().Insert("census", std::move(cells));
  }
  DeltaBatch st;
  for (const maybms::Tuple& row : states.rows()) {
    std::vector<CellSpec> cells;
    for (const Value& v : row) cells.push_back(CellSpec::Certain(v));
    st.Insert("states", std::move(cells));
  }
  in.batches.push_back(std::move(st));
  return in;
}

Status LoadCensus(maybms::sql::Session* session, const CensusInput& input) {
  for (const std::string& ddl : input.ddl) {
    MAYBMS_RETURN_IF_ERROR(session->Execute(ddl).status());
  }
  for (const DeltaBatch& batch : input.batches) {
    MAYBMS_RETURN_IF_ERROR(session->ApplyDelta(batch).status());
  }
  return Status::OK();
}

std::string CensusStatement(InputRng* rng, int shape) {
  static const char* const kRegions[] = {"South", "West", "Midwest",
                                         "Northeast"};
  auto z = [&](uint64_t n, double s) {
    return std::to_string(rng->Zipf(n, s));
  };
  const std::string age = z(91, 0.3);
  if (shape < 0) shape = static_cast<int>(rng->Below(kCensusShapes));
  switch (shape) {
    case 0:  // Q1: selection on a noisy attribute
      return "SELECT PERNUM, PROB() FROM census WHERE AGE = " + age;
    case 1:
      return "SELECT ECOUNT() FROM census WHERE AGE >= " +
             std::to_string(50 + rng->Zipf(41, 1.0));
    case 2:  // Q2: conjunctive selection across two attributes
      return "POSSIBLE SELECT PERNUM, AGE FROM census WHERE SEX = " +
             z(2, 0.0) + " AND AGE < " + std::to_string(1 + rng->Zipf(30, 1.0));
    case 3:
      return "CERTAIN SELECT PERNUM FROM census WHERE SEX = " + z(2, 0.0) +
             " AND MARST = " + z(6, 0.5) + " AND AGE = " + age;
    case 4:  // Q3: selection + projection
      return "SELECT ESUM(INCTOT) FROM census WHERE STATEFIP = " + z(51, 0.8);
    case 5:
      return "SELECT STATEFIP, PROB() FROM census WHERE EDUC = " + z(18, 0.6) +
             " AND EMPSTAT = " + z(4, 0.7);
    case 6:  // Q4: join with states + selection on the joined side
      return "SELECT c.PERNUM, s.NAME, PROB() FROM census c, states s WHERE "
             "c.STATEFIP = s.STATEFIP AND s.REGION = '" +
             std::string(kRegions[rng->Zipf(4, 1.0)]) + "' AND c.AGE = " + age;
    case 7:
      return "SELECT ECOUNT() FROM census c, states s WHERE c.STATEFIP = "
             "s.STATEFIP AND s.REGION = '" +
             std::string(kRegions[rng->Zipf(4, 1.0)]) + "' AND c.RACE = " +
             z(9, 1.1);
    case 8:  // Q5: distinct projection
      return "SELECT DISTINCT STATEFIP, PROB() FROM census WHERE MARST = " +
             z(6, 0.5) + " AND AGE > " +
             std::to_string(60 + rng->Zipf(31, 1.0));
    case 9:  // Q6: union of two selections
      return "POSSIBLE SELECT PERNUM FROM census WHERE VETSTAT = " + z(3, 1.0) +
             " AND AGE = " + age +
             " UNION SELECT PERNUM FROM census WHERE FARM = 1 AND AGE = " + age;
    case 10:
      return "SELECT STATEFIP, APPROX CONF(0.05, 0.05) FROM census WHERE "
             "AGE = " + age + " AND SEX = " + z(2, 0.0);
    default:
      return "SELECT ESUM(HRSWORK) FROM census WHERE AGE = " + age;
  }
}

Result<uint64_t> UntracedRead(maybms::sql::Session* session,
                              const std::string& text, double* ms) {
  const Clock::time_point start = Clock::now();
  Result<maybms::sql::StatementResult> r = session->Execute(text);
  *ms = MsSince(start);
  if (!r.ok()) return r.status();
  return DigestResult(*r);
}

namespace {

Relation ScalarTable(const char* name, double v) {
  Relation t("", maybms::Schema({{name, maybms::ValueType::kDouble}}));
  t.AppendUnchecked({Value::Double(v)});
  return t;
}

/// The confidence step of Session::RunSelect: the aggregate `q` asks for,
/// over the lifted answer, with the session's confidence cache.
Result<Relation> Confidence(maybms::sql::Session* session,
                            const maybms::sql::PlannedQuery& q,
                            const maybms::WsdDb& answer) {
  maybms::ConfidenceOptions conf = session->options().conf;
  conf.cache = session->conf_cache();
  if (q.wants_ecount) {
    MAYBMS_ASSIGN_OR_RETURN(double v,
                            maybms::ExpectedCount(answer, "result", conf));
    return ScalarTable("ecount", v);
  }
  if (q.wants_esum) {
    MAYBMS_ASSIGN_OR_RETURN(
        double v, maybms::ExpectedSum(answer, "result", q.esum_column, conf));
    return ScalarTable("esum", v);
  }
  if (q.wants_approx) {
    maybms::ApproxOptions approx = session->options().approx;
    approx.cache = session->conf_cache();
    approx.epsilon = q.approx_eps;
    approx.delta = q.approx_delta;
    return maybms::ApproxConfTable(answer, "result", approx);
  }
  if (q.wants_prob) return maybms::ConfTable(answer, "result", conf);
  if (q.mode == maybms::sql::SelectMode::kPossible) {
    return maybms::PossibleTuples(answer, "result", conf);
  }
  if (q.mode == maybms::sql::SelectMode::kCertain) {
    return maybms::CertainTuples(answer, "result", conf);
  }
  return Status::InvalidArgument("world-set answers are not traced");
}

}  // namespace

Result<uint64_t> TracedRead(maybms::sql::Session* session,
                            const std::string& text, double* ms) {
  using namespace maybms::sql;
  const maybms::WsdDb& db = session->db();
  maybms::PlanPtr plan;
  maybms::WsdDb answer;
  Relation table;
  const Clock::time_point start = Clock::now();
  {
    Span stmt("stmt");
    Statement parsed;
    {
      Span s("sql.parse");
      MAYBMS_ASSIGN_OR_RETURN(parsed, ParseStatement(text));
    }
    if (parsed.kind != Statement::Kind::kSelect) {
      return Status::InvalidArgument("not a read statement: " + text);
    }
    PlannedQuery q;
    {
      Span s("sql.plan");
      MAYBMS_ASSIGN_OR_RETURN(q, PlanSelect(*parsed.select, db));
    }
    {
      Span s("sql.optimize");
      MAYBMS_ASSIGN_OR_RETURN(
          plan, Optimize(q.plan, db, session->options().optimizer));
    }
    {
      Span s("core.lifted");
      maybms::LiftedExecOptions lifted;
      lifted.eval = session->options().exec;
      MAYBMS_ASSIGN_OR_RETURN(answer, maybms::ExecuteLifted(plan, db, lifted));
    }
    {
      Span s("core.confidence");
      MAYBMS_ASSIGN_OR_RETURN(table, Confidence(session, q, answer));
    }
    if (q.wants_prob || q.wants_approx) {
      // Session::RunSelect copies these answers into a relation whose
      // trailing columns carry the query's alias.
      Span s("sql.result");
      Relation renamed(table.name(), table.schema());
      for (const maybms::Tuple& row : table.rows()) {
        renamed.AppendUnchecked(row);
      }
      table = std::move(renamed);
    }
  }
  *ms = MsSince(start);

  Tracer* tracer = Tracer::Current();
  MAYBMS_ASSIGN_OR_RETURN(const maybms::WsdRelation* result,
                          answer.GetRelation("result"));
  const double rows = static_cast<double>(result->NumTuples());
  double estimate = 0.0;
  {
    Span s("sql.estimate_rows");
    MAYBMS_ASSIGN_OR_RETURN(estimate, EstimateRows(plan, db));
  }
  size_t clusters = 0;
  {
    Span s("core.cluster_index");
    maybms::ClusterIndex index(answer, *result);
    clusters = index.clusters().size();
  }
  if (tracer) {
    tracer->Sample("core.lifted_rows_out", rows);
    tracer->Sample("sql.est_rows_error",
                   std::fabs(std::log2((estimate + 1.0) / (rows + 1.0))));
    tracer->Sample("core.clusters", static_cast<double>(clusters));
  }
  return DigestRelation(table);
}

}  // namespace perfbench
