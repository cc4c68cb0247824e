// What the workloads feed the engine, and the two ways a read statement
// runs: untraced through sql::Session::Execute (the user's path, timed
// for the end-to-end metrics), and traced as the same sequence of
// public layer calls Session::RunSelect makes, each inside its span.
#ifndef PERFBENCH_STATEMENT_H_
#define PERFBENCH_STATEMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/delta.h"
#include "sql/session.h"
#include "stats.h"

namespace perfbench {

/// A noisy census as the engine receives it: CREATE TABLE texts for
/// census and states, then DeltaBatches of their tuples. A `noise`
/// share of the non-key census cells are or-sets of 2-4 alternatives
/// drawn from the same column of other records.
struct CensusInput {
  std::vector<std::string> ddl;
  std::vector<maybms::DeltaBatch> batches;
};
CensusInput MakeCensus(uint64_t seed, size_t records, double noise);

/// Runs the DDL and applies the batches through Session::ApplyDelta.
maybms::Status LoadCensus(maybms::sql::Session* session,
                          const CensusInput& input);

/// One read statement over census (+ states): the paper's Q1-Q6 shapes,
/// each asked with PROB(), POSSIBLE, CERTAIN, ECOUNT, ESUM or
/// APPROX CONF, with Zipf-drawn predicate constants. `shape` picks one
/// of the kCensusShapes shapes; a negative one draws it uniformly.
inline constexpr int kCensusShapes = 12;
std::string CensusStatement(InputRng* rng, int shape = -1);

/// Executes `text` through Session::Execute; returns the answer digest
/// and sets `*ms` to the time Execute took.
maybms::Result<uint64_t> UntracedRead(maybms::sql::Session* session,
                                      const std::string& text, double* ms);

/// Executes the read statement `text` the way Session::RunSelect does,
/// one layer call per span, under a "stmt" root, on the calling thread's
/// Tracer. After the statement it probes, outside statement time,
/// EstimateRows on the optimized plan and a ClusterIndex on the answer.
/// Returns the answer digest, equal to UntracedRead's, and sets `*ms` to
/// the statement's time (the "stmt" span, probes excluded).
maybms::Result<uint64_t> TracedRead(maybms::sql::Session* session,
                                    const std::string& text, double* ms);

}  // namespace perfbench

#endif  // PERFBENCH_STATEMENT_H_
