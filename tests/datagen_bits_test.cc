// Pins the exact bytes of every dataset generator's output. Any change to a
// generator, or to a kernel a generator calls, that moves one cell, one pair
// or one label of one draw fails here, so a datagen change that claims "same
// datasets" is checked in-tree.
//
// One FNV-1a digest per (dataset, scale, seed offset), over:
//   table_a, then table_b: the row count, then per row the entity id and,
//     per cell, a null flag and, when not null, the length and the bytes;
//   train, valid, test: the pair count, then per pair left, right, label.
// Every integer is hashed as 8 little-endian bytes. The seed offsets are 0,
// 1 and 1000003 (the benchmark's stride between two draws of one run).
// To re-pin after an intended data change, run the test and copy the
// "actual" values it prints.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/datagen/benchmark_suite.h"

namespace fairem {
namespace {

struct Pinned {
  DatasetKind dataset;
  double scale;
  uint64_t seed_offset;
  uint64_t digest;
};

const Pinned kPinned[] = {
    {DatasetKind::kFacultyMatch, 0.25, 0, 0xaabb95565e570feaULL},
    {DatasetKind::kFacultyMatch, 0.25, 1, 0x5eb29c450aae624eULL},
    {DatasetKind::kFacultyMatch, 0.25, 1000003, 0xa83b213817fd57e9ULL},
    {DatasetKind::kFacultyMatch, 1.0, 0, 0x649cb042a666252fULL},
    {DatasetKind::kFacultyMatch, 1.0, 1, 0x7747b5c42caa78f9ULL},
    {DatasetKind::kFacultyMatch, 1.0, 1000003, 0x968a60f8a4a2b036ULL},
    {DatasetKind::kFacultyMatch, 2.0, 0, 0x1edf68554a07c70aULL},
    {DatasetKind::kFacultyMatch, 2.0, 1, 0x4783ef0eb16e86f7ULL},
    {DatasetKind::kFacultyMatch, 2.0, 1000003, 0x08b8cfd67f69941fULL},
    {DatasetKind::kNoFlyCompas, 0.25, 0, 0x01bc1a62db28948cULL},
    {DatasetKind::kNoFlyCompas, 0.25, 1, 0xcee3664865ac2c28ULL},
    {DatasetKind::kNoFlyCompas, 0.25, 1000003, 0xb9b69fa4ae7c0df8ULL},
    {DatasetKind::kNoFlyCompas, 1.0, 0, 0xf318334e4d82b2c0ULL},
    {DatasetKind::kNoFlyCompas, 1.0, 1, 0x685293705b53aeb8ULL},
    {DatasetKind::kNoFlyCompas, 1.0, 1000003, 0x527535a4a2c90f82ULL},
    {DatasetKind::kNoFlyCompas, 2.0, 0, 0x8f131cd93da86a47ULL},
    {DatasetKind::kNoFlyCompas, 2.0, 1, 0x5565bbbe56595bffULL},
    {DatasetKind::kNoFlyCompas, 2.0, 1000003, 0xce602a7655c8862cULL},
    {DatasetKind::kItunesAmazon, 0.25, 0, 0x885edb2ad2c9ebd6ULL},
    {DatasetKind::kItunesAmazon, 0.25, 1, 0x42c09127afc9c5c2ULL},
    {DatasetKind::kItunesAmazon, 0.25, 1000003, 0xaecec4bc77bbc62aULL},
    {DatasetKind::kItunesAmazon, 1.0, 0, 0x9a60b89526f8826bULL},
    {DatasetKind::kItunesAmazon, 1.0, 1, 0x7241b69b81a08ab3ULL},
    {DatasetKind::kItunesAmazon, 1.0, 1000003, 0x3edd489b41a12d8cULL},
    {DatasetKind::kItunesAmazon, 2.0, 0, 0x87ebbec173a086e2ULL},
    {DatasetKind::kItunesAmazon, 2.0, 1, 0x2a696d5f327f15e6ULL},
    {DatasetKind::kItunesAmazon, 2.0, 1000003, 0x45c4b9ff98baef34ULL},
    {DatasetKind::kItunesAmazon, 8.0, 0, 0x1d897fd259df8483ULL},
    {DatasetKind::kItunesAmazon, 8.0, 1, 0xb5bf468a28274754ULL},
    {DatasetKind::kItunesAmazon, 8.0, 1000003, 0xd6ed2c1989fa2673ULL},
    {DatasetKind::kDblpAcm, 0.25, 0, 0x103463892d1f4e71ULL},
    {DatasetKind::kDblpAcm, 0.25, 1, 0x2dcdeccde023d311ULL},
    {DatasetKind::kDblpAcm, 0.25, 1000003, 0x6990b90fe4234341ULL},
    {DatasetKind::kDblpAcm, 1.0, 0, 0xf5ef04db06ca0328ULL},
    {DatasetKind::kDblpAcm, 1.0, 1, 0x0421272898c65b04ULL},
    {DatasetKind::kDblpAcm, 1.0, 1000003, 0xa2f2dfd871c4b677ULL},
    {DatasetKind::kDblpAcm, 2.0, 0, 0xba3c2ab387bb04deULL},
    {DatasetKind::kDblpAcm, 2.0, 1, 0x68cd35648bad3428ULL},
    {DatasetKind::kDblpAcm, 2.0, 1000003, 0x679be221758b998fULL},
    {DatasetKind::kDblpScholar, 0.25, 0, 0x0058e75494625772ULL},
    {DatasetKind::kDblpScholar, 0.25, 1, 0xa77ed6e299ea25faULL},
    {DatasetKind::kDblpScholar, 0.25, 1000003, 0xe0652e9149f8b63eULL},
    {DatasetKind::kDblpScholar, 1.0, 0, 0x8bcb7edc6065ae14ULL},
    {DatasetKind::kDblpScholar, 1.0, 1, 0xa0199091ae6103dbULL},
    {DatasetKind::kDblpScholar, 1.0, 1000003, 0xb2711363ea816163ULL},
    {DatasetKind::kDblpScholar, 2.0, 0, 0x6e859a40f48e8137ULL},
    {DatasetKind::kDblpScholar, 2.0, 1, 0x8c34c88ca6e58b69ULL},
    {DatasetKind::kDblpScholar, 2.0, 1000003, 0x2cdebbbc8c6cbac2ULL},
    {DatasetKind::kCricket, 0.25, 0, 0xcd9009a96e5d9058ULL},
    {DatasetKind::kCricket, 0.25, 1, 0x233137e64e55c3dcULL},
    {DatasetKind::kCricket, 0.25, 1000003, 0xcc530e4ea8efdbe8ULL},
    {DatasetKind::kCricket, 1.0, 0, 0x01a866a3c30efd1eULL},
    {DatasetKind::kCricket, 1.0, 1, 0xc8a3f224b2ab5df7ULL},
    {DatasetKind::kCricket, 1.0, 1000003, 0x44cafebf4ed64a55ULL},
    {DatasetKind::kCricket, 2.0, 0, 0x35489753fa4a5189ULL},
    {DatasetKind::kCricket, 2.0, 1, 0x35f9bda44d3dcd9dULL},
    {DatasetKind::kCricket, 2.0, 1000003, 0x2256be84b9dd69c9ULL},
    {DatasetKind::kShoes, 0.25, 0, 0xcec1ccfcc524a1aaULL},
    {DatasetKind::kShoes, 0.25, 1, 0x5c41bc227af8828aULL},
    {DatasetKind::kShoes, 0.25, 1000003, 0x837c79f891990699ULL},
    {DatasetKind::kShoes, 1.0, 0, 0x8a144606fb09fe82ULL},
    {DatasetKind::kShoes, 1.0, 1, 0xab2210d4423cb10bULL},
    {DatasetKind::kShoes, 1.0, 1000003, 0xdb113c5533e0c923ULL},
    {DatasetKind::kShoes, 2.0, 0, 0xb701d1019397ba9eULL},
    {DatasetKind::kShoes, 2.0, 1, 0x420f0c8bd594e18fULL},
    {DatasetKind::kShoes, 2.0, 1000003, 0xfabc3afb166ed01bULL},
    {DatasetKind::kCameras, 0.25, 0, 0xbd6075fa1cb6f78dULL},
    {DatasetKind::kCameras, 0.25, 1, 0xeb85db86da97a8f7ULL},
    {DatasetKind::kCameras, 0.25, 1000003, 0x3bb59c02c636b239ULL},
    {DatasetKind::kCameras, 1.0, 0, 0x00629f80e39f9f6fULL},
    {DatasetKind::kCameras, 1.0, 1, 0x1235895caee7b3b3ULL},
    {DatasetKind::kCameras, 1.0, 1000003, 0x1c3ae85c63fad43dULL},
    {DatasetKind::kCameras, 2.0, 0, 0xc9f42a36785fb791ULL},
    {DatasetKind::kCameras, 2.0, 1, 0x2ce50e4e68446d78ULL},
    {DatasetKind::kCameras, 2.0, 1000003, 0xdfc26705b703b48fULL},
};

class Fnv1a {
 public:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void U64(uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) Byte((v >> (8 * byte)) & 0xffULL);
  }
  void Bytes(std::string_view s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void HashTable(const Table& table, Fnv1a* h) {
  h->U64(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Record& row = table.row(i);
    h->U64(static_cast<uint64_t>(row.entity_id));
    for (const Cell& cell : row.cells) {
      h->Byte(cell.has_value() ? 1 : 0);
      if (cell.has_value()) h->Bytes(*cell);
    }
  }
}

void HashPairs(const std::vector<LabeledPair>& pairs, Fnv1a* h) {
  h->U64(pairs.size());
  for (const LabeledPair& p : pairs) {
    h->U64(p.left);
    h->U64(p.right);
    h->Byte(p.is_match ? 1 : 0);
  }
}

uint64_t Digest(const EMDataset& ds) {
  Fnv1a h;
  HashTable(ds.table_a, &h);
  HashTable(ds.table_b, &h);
  HashPairs(ds.train, &h);
  HashPairs(ds.valid, &h);
  HashPairs(ds.test, &h);
  return h.value();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(DatagenBitsTest, EveryDrawMatchesItsPinnedDigest) {
  for (const Pinned& pin : kPinned) {
    const std::string label = std::string(DatasetKindName(pin.dataset)) +
                              " x" + std::to_string(pin.scale) + " seed " +
                              std::to_string(pin.seed_offset);
    SCOPED_TRACE(label);
    Result<EMDataset> ds =
        GenerateDataset(pin.dataset, pin.scale, pin.seed_offset);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    const uint64_t digest = Digest(*ds);
    EXPECT_EQ(digest, pin.digest) << "actual " << Hex(digest);
  }
}

TEST(DatagenBitsTest, PinsEveryKindScaleAndSeed) {
  // Each kind at x0.25, x1 and x2 under each of the three seed offsets, and
  // iTunes-Amazon also at x8 (the features_large input).
  size_t itunes = 0;
  for (const Pinned& pin : kPinned) {
    if (pin.dataset == DatasetKind::kItunesAmazon) ++itunes;
  }
  EXPECT_EQ(std::size(kPinned), AllDatasetKinds().size() * 9 + 3);
  EXPECT_EQ(itunes, 12u);
}

}  // namespace
}  // namespace fairem
