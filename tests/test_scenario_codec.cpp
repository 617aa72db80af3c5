// Property tests for the core::Scenario "key=value;" codec — the string a
// master hands every remote vela_node, so serialize→parse MUST be the
// identity on every field and parse MUST stay strict: a typo'd key or a
// malformed pair is a config error surfaced at parse time, never a silently
// defaulted knob on one process of a fleet.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <string>

#include "util/check.h"

namespace vela {
namespace {

core::Scenario nondefault_scenario() {
  core::Scenario sc;
  sc.model = "tiny_mistral";
  sc.workers = 5;
  sc.seed = 99;
  sc.wire_dtype = comm::WireDtype::kInt8;
  sc.q8_block = 32;
  sc.corpus = "alpaca";
  sc.corpus_seed = 1234;
  sc.corpus_domains = 3;
  sc.dataset_sequences = 7;
  sc.sequence_length = 11;
  sc.batch_size = 2;
  sc.batch_seed = 77;
  sc.steps = 13;
  return sc;
}

void expect_equal(const core::Scenario& a, const core::Scenario& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.wire_dtype, b.wire_dtype);
  EXPECT_EQ(a.q8_block, b.q8_block);
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.corpus_seed, b.corpus_seed);
  EXPECT_EQ(a.corpus_domains, b.corpus_domains);
  EXPECT_EQ(a.dataset_sequences, b.dataset_sequences);
  EXPECT_EQ(a.sequence_length, b.sequence_length);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.batch_seed, b.batch_seed);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(ScenarioCodec, DefaultRoundTripsExactly) {
  const core::Scenario sc;
  expect_equal(core::Scenario::parse(sc.serialize()), sc);
}

TEST(ScenarioCodec, EveryFieldSurvivesRoundTrip) {
  const core::Scenario sc = nondefault_scenario();
  expect_equal(core::Scenario::parse(sc.serialize()), sc);
  // Serialize is canonical: a second round trip produces identical text.
  EXPECT_EQ(core::Scenario::parse(sc.serialize()).serialize(),
            sc.serialize());
}

TEST(ScenarioCodec, WireDtypeSerializesByName) {
  // The dtype travels as a NAME — a kDefault scenario must reach a remote
  // vela_node still as "default" so the node resolves VELA_WIRE_DTYPE in
  // ITS environment, identically to the master's own resolution.
  core::Scenario sc;
  EXPECT_NE(sc.serialize().find("wire_dtype=default"), std::string::npos);
  sc.wire_dtype = comm::WireDtype::kInt8;
  EXPECT_NE(sc.serialize().find("wire_dtype=int8"), std::string::npos);
  EXPECT_EQ(core::Scenario::parse(sc.serialize()).wire_dtype,
            comm::WireDtype::kInt8);
}

TEST(ScenarioCodec, UnknownKeyRejected) {
  EXPECT_THROW(core::Scenario::parse("model=tiny_test;wire_dytpe=int8"),
               CheckError);
  EXPECT_THROW(core::Scenario::parse("bogus=1"), CheckError);
}

TEST(ScenarioCodec, RetiredWireBitsKeyRejected) {
  // wire_dtype is the one precision knob: the old accounting-depth key is
  // unknown, not silently ignored.
  EXPECT_THROW(core::Scenario::parse("wire_bits=16"), CheckError);
}

TEST(ScenarioCodec, MalformedPairsRejected) {
  // No '=' at all, and a pair that starts with '=' (empty key).
  EXPECT_THROW(core::Scenario::parse("model"), CheckError);
  EXPECT_THROW(core::Scenario::parse("=tiny_test"), CheckError);
}

TEST(ScenarioCodec, EmptyValuesRejectedForTypedKeys) {
  EXPECT_THROW(core::Scenario::parse("workers="), CheckError);
  EXPECT_THROW(core::Scenario::parse("wire_dtype="), CheckError);
  EXPECT_THROW(core::Scenario::parse("steps="), CheckError);
  // Non-numeric values for numeric keys are config errors too.
  EXPECT_THROW(core::Scenario::parse("workers=three"), CheckError);
  EXPECT_THROW(core::Scenario::parse("q8_block=64x"), CheckError);
}

TEST(ScenarioCodec, EmptyPairsBetweenSeparatorsTolerated) {
  // Trailing/doubled ';' separators carry no information and are skipped —
  // "a=1;;b=2;" parses like "a=1;b=2".
  const core::Scenario sc =
      core::Scenario::parse(";;model=tiny_test;;workers=2;;");
  EXPECT_EQ(sc.model, "tiny_test");
  EXPECT_EQ(sc.workers, 2u);
}

TEST(ScenarioCodec, UnknownPresetsRejectedAtParseTime) {
  // parse() resolves the model/corpus presets eagerly so a typo fails on
  // the master, not mid-assembly on a remote node.
  EXPECT_THROW(core::Scenario::parse("model=tiny_typo"), CheckError);
  EXPECT_THROW(core::Scenario::parse("corpus=imaginary"), CheckError);
}

TEST(ScenarioCodec, ValueWithEqualsSignKeepsEverythingAfterFirst) {
  // '=' binds at the FIRST occurrence; later '=' characters belong to the
  // value and are rejected by the preset check, not mis-split into keys.
  EXPECT_THROW(core::Scenario::parse("model=tiny=test"), CheckError);
}

}  // namespace
}  // namespace vela
