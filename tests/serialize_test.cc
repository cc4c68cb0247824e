// Tests for WSD persistence: exact round-trips, distribution
// preservation, tricky values, and corrupted-input handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/builder.h"
#include "core/lifted.h"
#include "core/serialize.h"
#include "storage/snapshot_io.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace {

using testing_util::ExpectDistEq;
using testing_util::MedicalExample;
using testing_util::ReadFixture;
using testing_util::RelationDistribution;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Edge-case databases for the binary round trips. Each was also written
// by the v2 writer into a fixture under tests/data/ before that writer
// was retired, so the v2 reader stays pinned against the same databases.
WsdDb TrickyValuesDb() {
  WsdDb db;
  EXPECT_TRUE(db.CreateRelation("t", Schema({{"s", ValueType::kString},
                                             {"d", ValueType::kDouble},
                                             {"b", ValueType::kBool},
                                             {"i", ValueType::kInt}}))
                  .ok());
  std::string with_nul = "nul";
  with_nul += '\0';
  with_nul += "inside";
  EXPECT_TRUE(
      InsertTuple(&db, "t",
                  {CellSpec::OrSet({{Value::String("with space\nand\n"
                                                   "newlines: s5:x"),
                                     0.5},
                                    {Value::String(with_nul), 0.25},
                                    {Value::String(""), 0.25}}),
                   CellSpec::Certain(Value::Double(-0.0)),
                   CellSpec::Certain(Value::Bool(false)),
                   CellSpec::Certain(Value::Int(-9223372036854775807LL))})
          .ok());
  EXPECT_TRUE(InsertTuple(&db, "t",
                          {CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Double(1e-300)),
                           CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Null())})
                  .ok());
  return db;
}

// Merging both components kills ids 0 and 1 and creates 2: the live set
// has gaps that the cells' ids must keep.
WsdDb ComponentGapsDb() {
  WsdDb db = MedicalExample();
  EXPECT_TRUE(db.MergeComponents(db.LiveComponents(), 1u << 12).ok());
  return db;
}

// A relation with no tuples, next to a populated one.
WsdDb EmptyRelationDb() {
  WsdDb db = MedicalExample();
  EXPECT_TRUE(
      db.CreateRelation("empty", Schema({{"x", ValueType::kInt}})).ok());
  return db;
}

WsdDb RandomFixtureDb() {
  Rng rng(7134);
  testing_util::RandomWsdOptions opt;
  opt.num_relations = 3;
  opt.max_tuples = 8;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  return testing_util::RandomWsd(&rng, opt);
}

struct V2Fixture {
  const char* file;
  WsdDb (*build)();
};

const V2Fixture kV2Fixtures[] = {
    {"medical_v2.wsd", MedicalExample},
    {"tricky_values_v2.wsd", TrickyValuesDb},
    {"component_gaps_v2.wsd", ComponentGapsDb},
    {"empty_relation_v2.wsd", EmptyRelationDb},
    {"random_v2.wsd", RandomFixtureDb},
};

TEST(SerializeTest, MedicalExampleRoundTrip) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  EXPECT_EQ(back->NumLiveComponents(), db.NumLiveComponents());
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R"), RelationDistribution(*b, "R"));
}

TEST(SerializeTest, FileRoundTrip) {
  WsdDb db = MedicalExample();
  std::string path = TempPath("maybms_roundtrip.wsd");
  MAYBMS_ASSERT_OK(SaveWsdDb(db, path));
  auto back = LoadWsdDb(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->GetRelation("R").value()->NumTuples(), 2u);
  std::remove(path.c_str());
}

TEST(SerializeTest, TrickyValuesSurvive) {
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation(
      "t", Schema({{"s", ValueType::kString},
                   {"d", ValueType::kDouble},
                   {"b", ValueType::kBool},
                   {"i", ValueType::kInt}})));
  ASSERT_TRUE(
      InsertTuple(&db, "t",
                  {CellSpec::OrSet({{Value::String("with space\nand\n"
                                                   "newlines: s5:x"),
                                     0.5},
                                    {Value::String(""), 0.5}}),
                   CellSpec::Certain(Value::Double(-0.1)),
                   CellSpec::Certain(Value::Bool(false)),
                   CellSpec::Certain(Value::Int(-9223372036854775807LL))})
          .ok());
  ASSERT_TRUE(InsertTuple(&db, "t",
                          {CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Double(1e-300)),
                           CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Null())})
                  .ok());
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "t"), RelationDistribution(*b, "t"));
}

TEST(SerializeTest, GapsInComponentIdsSurvive) {
  // Removing a component leaves a dead id; the writer/reader must keep
  // the remaining ids stable because cells reference them.
  WsdDb db = MedicalExample();
  // Force a gap: merge the two components (kills both ids, creates a new
  // higher one), so the live set is {2} with dead 0 and 1.
  auto merged = db.MergeComponents(db.LiveComponents(), 1u << 12);
  ASSERT_TRUE(merged.ok());
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R"), RelationDistribution(*b, "R"));
}

TEST(SerializeTest, LoadedDbSupportsFurtherOperations) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok());
  // Owner counter was restored: new inserts must not collide with loaded
  // owners.
  auto h = InsertTuple(&*back, "R",
                       {CellSpec::UniformOrSet({Value::String("x"),
                                                Value::String("y")}),
                        CellSpec::Certain(Value::String("t")),
                        CellSpec::Certain(Value::String("s"))});
  ASSERT_TRUE(h.ok());
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto pred = Expr::Compare(CompareOp::kEq, Expr::Column("Diagnosis"),
                            Expr::Const(Value::String("pregnancy")));
  MAYBMS_ASSERT_OK(LiftedSelect(&*back, "R", pred, "ans"));
  MAYBMS_ASSERT_OK(back->CheckInvariants());
}

class SerializeRandom : public ::testing::TestWithParam<int> {};

TEST_P(SerializeRandom, RoundTripPreservesDistribution) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6121 + 41);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto a = EnumerateWorlds(db, 1u << 16);
  auto b = EnumerateWorlds(*back, 1u << 16);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R0"),
               RelationDistribution(*b, "R0"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRandom, ::testing::Range(0, 15));

// --- binary columnar snapshot format ("MAYBMS-WSD 3") ----------------------

TEST(SerializeBinaryTest, MedicalExampleExactRoundTrip) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R"), RelationDistribution(*b, "R"));
}

TEST(SerializeBinaryTest, FileRoundTripWithFormatNegotiation) {
  WsdDb db = MedicalExample();
  std::string bin_path = TempPath("maybms_roundtrip_v3.wsd");
  std::string text_path = TempPath("maybms_roundtrip_v1.wsd");
  MAYBMS_ASSERT_OK(SaveWsdDb(db, bin_path, SnapshotFormat::kBinary));
  MAYBMS_ASSERT_OK(SaveWsdDb(db, text_path, SnapshotFormat::kText));
  // LoadWsdDb negotiates the format from the header line of each file.
  auto from_bin = LoadWsdDb(bin_path);
  auto from_text = LoadWsdDb(text_path);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  testing_util::ExpectDbsExactlyEqual(*from_text, *from_bin);
  std::remove(bin_path.c_str());
  std::remove(text_path.c_str());
}

TEST(SerializeBinaryTest, TrickyValuesSurvive) {
  WsdDb db = TrickyValuesDb();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

TEST(SerializeBinaryTest, EmptyAndDegenerateDbsRoundTrip) {
  // Fully empty database.
  {
    WsdDb db;
    std::stringstream ss;
    MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
    auto back = ReadWsdDb(ss);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(db, *back);
  }
  // A relation with no tuples, next to a populated one.
  {
    WsdDb db = EmptyRelationDb();
    std::stringstream ss;
    MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
    auto back = ReadWsdDb(ss);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(db, *back);
  }
}

TEST(SerializeBinaryTest, GapsInComponentIdsSurvive) {
  WsdDb db = ComponentGapsDb();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

TEST(SerializeBinaryTest, LoadedDbSupportsFurtherOperations) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok());
  // The owner counter was persisted: new inserts must not collide with
  // loaded owners.
  auto h = InsertTuple(&*back, "R",
                       {CellSpec::UniformOrSet({Value::String("x"),
                                                Value::String("y")}),
                        CellSpec::Certain(Value::String("t")),
                        CellSpec::Certain(Value::String("s"))});
  ASSERT_TRUE(h.ok());
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto pred = Expr::Compare(CompareOp::kEq, Expr::Column("Diagnosis"),
                            Expr::Const(Value::String("pregnancy")));
  MAYBMS_ASSERT_OK(LiftedSelect(&*back, "R", pred, "ans"));
  MAYBMS_ASSERT_OK(back->CheckInvariants());
}

TEST(SerializeBinaryTest, EveryTruncationFailsCleanly) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  std::string full = ss.str();
  for (size_t len = 0; len < full.size(); ++len) {
    std::stringstream cut(full.substr(0, len));
    auto r = ReadWsdDb(cut);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " parsed";
  }
}

TEST(SerializeBinaryTest, EveryByteFlipFailsCleanly) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  std::string full = ss.str();
  // Flipping any single byte must yield a clean Status — the section
  // checksums catch payload damage, the framing catches the rest. (A
  // flip inside the header line may instead select the text reader or
  // an unsupported version; those also fail cleanly.)
  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    std::stringstream in(bad);
    auto r = ReadWsdDb(in);
    EXPECT_FALSE(r.ok()) << "byte flip at offset " << i << " parsed";
  }
}

TEST(SerializeBinaryTest, ChecksumMismatchIsReported) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  std::string full = ss.str();
  // Corrupt one byte inside the last section payload (RELS), ahead of
  // the empty END section's 20-byte framing.
  size_t off = full.size() - 30;
  full[off] = static_cast<char>(full[off] ^ 0xff);
  std::stringstream in(full);
  auto r = ReadWsdDb(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// Hostile v2 images, built by hand: the read-only v2 reader keeps the
// same allocation bounds as v3. Sections carry valid checksums, so only
// the count checks stand between a crafted file and a huge allocation.
std::string HandBuiltV2(const std::string& comp, const std::string& rels) {
  std::stringstream out;
  out << "MAYBMS-WSD 2\n";
  std::string meta;
  PutPod(&meta, static_cast<uint32_t>(0x32445357));  // endian mark
  PutPod(&meta, static_cast<uint64_t>(1u << 20));    // max_component_rows
  PutPod(&meta, static_cast<uint64_t>(1));           // owner counter
  std::string strs;
  PutPod(&strs, static_cast<uint32_t>(0));  // no strings
  PutPod(&strs, static_cast<uint64_t>(0));  // blob length
  PutPod(&strs, static_cast<uint64_t>(0));  // sentinel offset
  EXPECT_TRUE(
      WriteSnapshotSection(out, SnapshotFourCC('M', 'E', 'T', 'A'), meta).ok());
  EXPECT_TRUE(
      WriteSnapshotSection(out, SnapshotFourCC('S', 'T', 'R', 'S'), strs).ok());
  EXPECT_TRUE(
      WriteSnapshotSection(out, SnapshotFourCC('C', 'O', 'M', 'P'), comp).ok());
  EXPECT_TRUE(
      WriteSnapshotSection(out, SnapshotFourCC('R', 'E', 'L', 'S'), rels).ok());
  EXPECT_TRUE(
      WriteSnapshotSection(out, SnapshotFourCC('E', 'N', 'D', '.'), "").ok());
  return out.str();
}

void ExpectParseError(const std::string& image, const char* reason) {
  std::stringstream in(image);
  auto r = ReadWsdDb(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(reason), std::string::npos)
      << r.status().ToString();
}

TEST(SerializeBinaryTest, HugeComponentIdIsRejectedNotAllocated) {
  // A component id with ~2^28 dead-id gaps must fail fast instead of
  // materializing them.
  std::string comp;
  PutPod(&comp, static_cast<uint32_t>(1));           // one component...
  PutPod(&comp, static_cast<uint32_t>(0x0fffffff));  // ...at a huge id
  PutPod(&comp, static_cast<uint32_t>(1));           // n_slots
  PutPod(&comp, static_cast<uint64_t>(1));           // n_rows
  PutPod(&comp, static_cast<uint64_t>(1));           // slot owner
  PutLenString(&comp, "x");                          // slot label
  PutPod(&comp, 1.0);                                // prob column
  PutPod(&comp, static_cast<uint8_t>(2));            // tag: bool
  PutPod(&comp, static_cast<uint64_t>(1));           // payload
  ExpectParseError(HandBuiltV2(comp, ""), "dead-id gaps");
}

TEST(SerializeBinaryTest, HugeSlotCountIsRejectedNotAllocated) {
  // 2^32-1 slots in a tiny payload must fail on the count bound, not
  // attempt a ~100GB reserve.
  std::string comp;
  PutPod(&comp, static_cast<uint32_t>(1));           // one component
  PutPod(&comp, static_cast<uint32_t>(0));           // id 0
  PutPod(&comp, static_cast<uint32_t>(0xffffffff));  // hostile n_slots
  PutPod(&comp, static_cast<uint64_t>(1));           // n_rows
  ExpectParseError(HandBuiltV2(comp, ""), "slot count");
}

TEST(SerializeBinaryTest, HugeRelationCountsAreRejectedNotAllocated) {
  std::string no_comps;
  PutPod(&no_comps, static_cast<uint32_t>(0));
  // One relation "r" (x INT) whose body declares `n_tuples` rows and
  // `n_deps` dependencies in a payload holding neither.
  auto rels = [](uint64_t n_tuples, uint64_t n_deps) {
    std::string r;
    PutPod(&r, static_cast<uint32_t>(1));
    PutLenString(&r, "r");
    PutLenString(&r, "r");
    PutPod(&r, static_cast<uint32_t>(1));  // n_cols
    PutPod(&r, n_tuples);
    PutLenString(&r, "x");
    PutPod(&r, static_cast<uint8_t>(1));  // int
    PutPod(&r, static_cast<uint32_t>(0));  // dep_counts[0]
    PutPod(&r, n_deps);
    return r;
  };
  ExpectParseError(HandBuiltV2(no_comps, rels(uint64_t{1} << 60, 0)),
                   "exceeds payload");
  ExpectParseError(HandBuiltV2(no_comps, rels(1, uint64_t{1} << 61)),
                   "exceeds payload");
  ExpectParseError(HandBuiltV2(no_comps, rels(1, 0)), "exceeds payload");
}

TEST(SerializeTest, HugeComponentIdIsRejectedNotAllocated) {
  std::stringstream in(
      "MAYBMS-WSD 1\nOPTIONS 16\nCOMPONENTS 1\n"
      "COMPONENT 999999999 1 1\nSLOT 1 s1:x\nROW 1 T\nRELATIONS 0\nEND\n");
  auto r = ReadWsdDb(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("dead-id gaps"), std::string::npos)
      << r.status().ToString();
}

class SerializeBinaryRandom : public ::testing::TestWithParam<int> {};

TEST_P(SerializeBinaryRandom, ExactRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7121 + 13);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeBinaryRandom,
                         ::testing::Range(0, 15));

// --- v1 compatibility pin ---------------------------------------------------
//
// tests/data/medical_v1.wsd is a checked-in text snapshot of the
// paper's medical example, written by the v1 writer when the binary
// format landed. v1 files must stay readable forever, and the v1
// writer must keep producing byte-identical output for the same
// database — both are asserted against the fixture.

TEST(SerializeCompatTest, V1FixtureLoadsAndRewritesBitIdentically) {
  std::string path = std::string(MAYBMS_TEST_DATA_DIR) + "/medical_v1.wsd";
  std::ifstream fixture(path, std::ios::binary);
  ASSERT_TRUE(fixture.good()) << "missing fixture " << path;
  std::stringstream raw;
  raw << fixture.rdbuf();

  auto loaded = LoadWsdDb(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  MAYBMS_ASSERT_OK(loaded->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(MedicalExample(), *loaded);

  std::stringstream rewritten;
  MAYBMS_ASSERT_OK(WriteWsdDb(*loaded, rewritten));
  EXPECT_EQ(raw.str(), rewritten.str())
      << "v1 writer output drifted from the checked-in fixture";
}

// --- v2 compatibility pins -------------------------------------------------
//
// The files listed in kV2Fixtures were written by the v2 binary writer
// before it was retired (v3 is the only binary format the engine
// writes). Old v2 snapshots must stay readable: each fixture loads into
// exactly the database its builder makes, survives a v3 rewrite, and no
// truncation or byte flip of it parses.

TEST(SerializeCompatTest, V2FixturesLoadExactlyAndUpgradeToV3) {
  for (const V2Fixture& f : kV2Fixtures) {
    SCOPED_TRACE(f.file);
    auto loaded = LoadWsdDb(std::string(MAYBMS_TEST_DATA_DIR) + "/" + f.file);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    MAYBMS_ASSERT_OK(loaded->CheckInvariants());
    testing_util::ExpectDbsExactlyEqual(f.build(), *loaded);

    std::stringstream v3;
    MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(*loaded, v3));
    auto back = ReadWsdDb(v3);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(*loaded, *back);
  }
}

TEST(SerializeCompatTest, V2FixtureEveryTruncationFailsCleanly) {
  for (const V2Fixture& f : kV2Fixtures) {
    const std::string full = ReadFixture(f.file);
    ASSERT_FALSE(full.empty()) << f.file;
    for (size_t len = 0; len < full.size(); ++len) {
      std::stringstream cut(full.substr(0, len));
      EXPECT_FALSE(ReadWsdDb(cut).ok())
          << f.file << ": prefix of length " << len << " parsed";
    }
  }
}

TEST(SerializeCompatTest, V2FixtureEveryByteFlipFailsCleanly) {
  for (const V2Fixture& f : kV2Fixtures) {
    const std::string full = ReadFixture(f.file);
    ASSERT_FALSE(full.empty()) << f.file;
    for (size_t i = 0; i < full.size(); ++i) {
      std::string bad = full;
      bad[i] = static_cast<char>(bad[i] ^ 0x20);
      std::stringstream in(bad);
      EXPECT_FALSE(ReadWsdDb(in).ok())
          << f.file << ": byte flip at offset " << i << " parsed";
    }
  }
}

// --- v3 (sharded) round trips -----------------------------------------------

TEST(SerializeV3Test, MedicalRoundTrip) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

TEST(SerializeV3Test, MultiShardRoundTripPreservesTupleOrder) {
  Rng rng(991);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  // Tiny shards: every relation splits into many blocks.
  db.mutable_options().rows_per_shard = 3;
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

class SerializeV3Random : public ::testing::TestWithParam<int> {};

TEST_P(SerializeV3Random, ExactRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 40127 + 7);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  db.mutable_options().rows_per_shard = 1 + GetParam() % 5;
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeV3Random, ::testing::Range(0, 15));

TEST(SerializeV3Test, SaveDefaultsToV3AndV2StaysReadable) {
  WsdDb db = MedicalExample();
  const std::string v3_path = ::testing::TempDir() + "/medical_default.wsd";
  const std::string v2_path =
      std::string(MAYBMS_TEST_DATA_DIR) + "/medical_v2.wsd";
  MAYBMS_ASSERT_OK(SaveWsdDb(db, v3_path, SnapshotFormat::kBinary));

  auto header = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::string line;
    std::getline(in, line);
    return line;
  };
  EXPECT_EQ(header(v3_path), "MAYBMS-WSD 3");
  EXPECT_EQ(header(v2_path), "MAYBMS-WSD 2");
  for (const auto& p : {v3_path, v2_path}) {
    auto back = LoadWsdDb(p);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(db, *back);
  }
  std::remove(v3_path.c_str());
}

TEST(SerializeTest, CorruptedInputsFailCleanly) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return ReadWsdDb(ss).status().code();
  };
  EXPECT_EQ(parse(""), StatusCode::kParseError);
  EXPECT_EQ(parse("NOT-A-WSD 1"), StatusCode::kParseError);
  EXPECT_EQ(parse("MAYBMS-WSD 99"), StatusCode::kUnsupported);
  EXPECT_EQ(parse("MAYBMS-WSD 1\nOPTIONS x"), StatusCode::kParseError);
  // Truncated mid-component.
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  std::string full = ss.str();
  EXPECT_EQ(parse(full.substr(0, full.size() / 2)), StatusCode::kParseError);
  EXPECT_EQ(LoadWsdDb("/nonexistent/x.wsd").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace maybms
