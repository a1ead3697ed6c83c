/// Unit tests for the relational storage substrate: schemas, records,
/// heap files, the bitmap scanner over striped and single-file record
/// maps, and the buffer pool.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/random.h"
#include "engine/bitmap_scan.h"
#include "engine/scan_spec.h"
#include "query/predicate.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "storage/striped_heap.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::ScratchDir;

// ------------------------------------------------------------------ Schema

TEST(SchemaTest, BenchmarkSchemaLayout) {
  // The paper's benchmark records: 250 x 4-byte columns + 8-byte key and
  // a 1-byte header = 1009 bytes (~1 KB records, §4.2).
  const Schema schema = Schema::MakeBenchmark(250, 4);
  EXPECT_EQ(schema.num_columns(), 251u);
  EXPECT_EQ(schema.record_size(), 1u + 8u + 250u * 4u);
  EXPECT_EQ(schema.column(0).name, "pk");
  EXPECT_EQ(schema.column(0).type, FieldType::kInt64);
}

TEST(SchemaTest, RejectsBadSchemas) {
  EXPECT_FALSE(Schema::Make({}).ok());
  EXPECT_FALSE(
      Schema::Make({{"pk", FieldType::kInt32, 0}}).ok());  // key not int64
  EXPECT_FALSE(Schema::Make({{"pk", FieldType::kInt64, 0},
                             {"pk", FieldType::kInt32, 0}})
                   .ok());  // duplicate name
  EXPECT_FALSE(Schema::Make({{"pk", FieldType::kInt64, 0},
                             {"s", FieldType::kString, 0}})
                   .ok());  // string without width
}

TEST(SchemaTest, MixedTypesAndOffsets) {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"a", FieldType::kInt32, 0},
                              {"b", FieldType::kDouble, 0},
                              {"name", FieldType::kString, 16}});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->record_size(), 1u + 8u + 4u + 8u + 16u);
  EXPECT_EQ(schema->offset(0), 1u);
  EXPECT_EQ(schema->offset(1), 9u);
  EXPECT_EQ(schema->offset(2), 13u);
  EXPECT_EQ(schema->offset(3), 21u);
  EXPECT_EQ(schema->FindColumn("name"), 3);
  EXPECT_EQ(schema->FindColumn("nope"), -1);
}

TEST(SchemaTest, SerializationRoundTrip) {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"a", FieldType::kInt32, 0},
                              {"s", FieldType::kString, 12}});
  ASSERT_TRUE(schema.ok());
  std::string blob;
  schema->EncodeTo(&blob);
  Slice in(blob);
  auto restored = Schema::DecodeFrom(&in);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == *schema);
}

// ------------------------------------------------------------------ Record

TEST(RecordTest, FieldAccess) {
  auto schema = Schema::Make({{"pk", FieldType::kInt64, 0},
                              {"a", FieldType::kInt32, 0},
                              {"b", FieldType::kDouble, 0},
                              {"name", FieldType::kString, 8}});
  ASSERT_TRUE(schema.ok());
  Record r(&*schema);
  r.SetPk(12345678901LL);
  r.SetInt32(1, -42);
  r.SetDouble(2, 2.5);
  r.SetString(3, "abc");

  const RecordRef ref = r.ref();
  EXPECT_EQ(ref.pk(), 12345678901LL);
  EXPECT_EQ(ref.GetInt32(1), -42);
  EXPECT_EQ(ref.GetDouble(2), 2.5);
  EXPECT_EQ(ref.GetString(3), "abc");
  EXPECT_FALSE(ref.tombstone());
}

TEST(RecordTest, StringTruncationAndPadding) {
  auto schema = Schema::Make(
      {{"pk", FieldType::kInt64, 0}, {"s", FieldType::kString, 4}});
  ASSERT_TRUE(schema.ok());
  Record r(&*schema);
  r.SetString(1, "toolongvalue");
  EXPECT_EQ(r.ref().GetString(1), "tool");
  r.SetString(1, "x");
  EXPECT_EQ(r.ref().GetString(1), "x");
}

TEST(RecordTest, Tombstone) {
  const Schema schema = Schema::MakeBenchmark(2);
  const Record t = MakeTombstone(&schema, 99);
  EXPECT_TRUE(t.tombstone());
  EXPECT_EQ(t.pk(), 99);
  Record r(&schema);
  r.SetTombstone(true);
  r.SetTombstone(false);
  EXPECT_FALSE(r.tombstone());
}

TEST(RecordTest, ColumnCopyForMerges) {
  const Schema schema = Schema::MakeBenchmark(3);
  Record a(&schema), b(&schema);
  a.SetPk(1);
  a.SetInt32(1, 10);
  b.SetPk(1);
  b.SetInt32(1, 99);
  a.CopyColumnFrom(1, b.ref());
  EXPECT_EQ(a.ref().GetInt32(1), 99);
}

// ---------------------------------------------------------------- HeapFile

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : dir_("heap"), pool_(1 << 20) {}

  std::string MakeRecordBytes(uint32_t record_size, int64_t pk, char fill) {
    std::string r(record_size, fill);
    r[0] = 0;  // flags
    memcpy(r.data() + 1, &pk, sizeof(pk));
    return r;
  }

  ScratchDir dir_;
  BufferPool pool_;
};

TEST_F(HeapFileTest, AppendAndGet) {
  HeapFile::Options opts;
  opts.page_size = 256;  // tiny pages: lots of boundaries
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (int64_t i = 0; i < 100; ++i) {
    auto idx = (*file)->Append(MakeRecordBytes(32, i, 'a' + i % 26));
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, static_cast<uint64_t>(i));
  }
  EXPECT_EQ((*file)->num_records(), 100u);
  std::string buf;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK((*file)->Get(static_cast<uint64_t>(i), &buf));
    EXPECT_EQ(buf, MakeRecordBytes(32, i, 'a' + i % 26)) << i;
  }
  EXPECT_TRUE((*file)->Get(100, &buf).IsOutOfRange());
}

TEST_F(HeapFileTest, RejectsWrongRecordSize) {
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append(std::string(31, 'x')).status()
                  .IsInvalidArgument());
  EXPECT_FALSE(
      HeapFile::Create(JoinPath(dir_.path(), "t2.dbhf"), 0, opts, &pool_)
          .ok());
  EXPECT_FALSE(
      HeapFile::Create(JoinPath(dir_.path(), "t3.dbhf"), 300, opts, &pool_)
          .ok());  // record larger than page
}

TEST_F(HeapFileTest, ScannerSeesAllRecordsIncludingTail) {
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok());
  for (int64_t i = 0; i < 57; ++i) {  // ends mid-page
    ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'z')).ok());
  }
  auto scanner = (*file)->NewScanner();
  Slice rec;
  uint64_t idx;
  uint64_t count = 0;
  while (scanner.Next(&rec, &idx)) {
    int64_t pk;
    memcpy(&pk, rec.data() + 1, sizeof(pk));
    EXPECT_EQ(pk, static_cast<int64_t>(idx));
    ++count;
  }
  ASSERT_OK(scanner.status());
  EXPECT_EQ(count, 57u);
}

TEST_F(HeapFileTest, ReopenRestoresAppendPosition) {
  HeapFile::Options opts;
  opts.page_size = 256;
  const std::string path = JoinPath(dir_.path(), "t.dbhf");
  {
    auto file = HeapFile::Create(path, 32, opts, &pool_);
    ASSERT_TRUE(file.ok());
    for (int64_t i = 0; i < 19; ++i) {
      ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'p')).ok());
    }
    ASSERT_OK((*file)->Flush());
  }
  {
    auto file = HeapFile::Open(path, opts, &pool_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_EQ((*file)->num_records(), 19u);
    for (int64_t i = 19; i < 40; ++i) {
      ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'p')).ok());
    }
    std::string buf;
    for (int64_t i = 0; i < 40; ++i) {
      ASSERT_OK((*file)->Get(static_cast<uint64_t>(i), &buf));
      EXPECT_EQ(buf, MakeRecordBytes(32, i, 'p')) << i;
    }
  }
}

TEST_F(HeapFileTest, SealForbidsAppends) {
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir_.path(), "t.dbhf"), 32, opts,
                               &pool_);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, 1, 'a')).ok());
  ASSERT_OK((*file)->Seal());
  EXPECT_TRUE((*file)->sealed());
  EXPECT_TRUE((*file)->Append(MakeRecordBytes(32, 2, 'b')).status()
                  .IsInvalidArgument());
}

TEST_F(HeapFileTest, CorruptPageDetected) {
  HeapFile::Options opts;
  opts.page_size = 256;
  const std::string path = JoinPath(dir_.path(), "t.dbhf");
  {
    auto file = HeapFile::Create(path, 32, opts, &pool_);
    ASSERT_TRUE(file.ok());
    for (int64_t i = 0; i < 30; ++i) {
      ASSERT_TRUE((*file)->Append(MakeRecordBytes(32, i, 'c')).ok());
    }
    ASSERT_OK((*file)->Flush());
  }
  // Corrupt a byte in the middle of the first data page.
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string mutated = *contents;
  mutated[64 + 100] ^= 0x7f;
  ASSERT_OK(WriteStringToFile(path, mutated));

  auto file = HeapFile::Open(path, opts, &pool_);
  if (file.ok()) {
    // Tail page was fine; reading the corrupt sealed page must fail.
    std::string buf;
    Status s = (*file)->Get(0, &buf);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  } else {
    EXPECT_TRUE(file.status().IsCorruption());
  }
}

// A sealed page of a file with the default 1 MiB pages, one payload byte
// flipped on disk: every read path must report Corruption, for raw and for
// compressed pages alike.
class HeapFileLargePageTest : public ::testing::Test {
 protected:
  HeapFileLargePageTest()
      : dir_("bigpage"), schema_(testing_util::TestSchema(3)), pool_(8 << 20) {
    opts_.schema = &schema_;
  }

  // Writes one full page plus a short tail through AppendBatch (whose
  // full-page path is the one that compresses), then flips one byte of
  // page 0's stored payload. Returns the page's format byte.
  uint8_t WriteAndCorrupt() {
    path_ = JoinPath(dir_.path(), "t.dbhf");
    {
      auto file = HeapFile::Create(path_, schema_.record_size(), opts_, &pool_);
      EXPECT_TRUE(file.ok());
      rpp_ = (*file)->records_per_page();
      std::string batch;
      for (uint64_t i = 0; i < rpp_ + 10; ++i) {
        batch += testing_util::MakeRecord(schema_, static_cast<int64_t>(i), 7)
                   .data()
                   .ToString();
      }
      EXPECT_TRUE((*file)->AppendBatch(batch, rpp_ + 10).ok());
      EXPECT_OK((*file)->Flush());
    }
    auto contents = ReadFileToString(path_);
    EXPECT_TRUE(contents.ok());
    std::string mutated = *contents;
    const uint64_t page0 = 64;  // after the file header
    const uint8_t format = static_cast<uint8_t>(mutated[page0 + 8]);
    uint32_t stored_len;
    memcpy(&stored_len, mutated.data() + page0 + 12, sizeof(stored_len));
    mutated[page0 + 16 + stored_len / 2] ^= 0x40;
    EXPECT_OK(WriteStringToFile(path_, mutated));
    return format;
  }

  std::unique_ptr<HeapFile> Reopen() {
    auto file = HeapFile::Open(path_, opts_, &pool_);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    return std::move(file).MoveValueUnsafe();
  }

  ScratchDir dir_;
  Schema schema_;
  BufferPool pool_;
  HeapFile::Options opts_;
  std::string path_;
  uint64_t rpp_ = 0;
};

TEST_F(HeapFileLargePageTest, CorruptRawPageFailsGet) {
  ASSERT_EQ(WriteAndCorrupt(), 0u);  // kRaw
  auto file = Reopen();
  ASSERT_EQ(file->page_size(), 1u << 20);
  std::string buf;
  Status s = file->Get(0, &buf);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The tail page is intact and still served.
  EXPECT_OK(file->Get(rpp_ + 1, &buf));
}

TEST_F(HeapFileLargePageTest, CorruptRawPageFailsBitmapScan) {
  ASSERT_EQ(WriteAndCorrupt(), 0u);
  auto file = Reopen();
  Bitmap bits;
  bits.Set(3);
  bits.Set(rpp_ + 2);
  BitmapScanner scanner(file.get(), &schema_, &bits);
  RecordRef rec;
  uint64_t idx;
  EXPECT_FALSE(scanner.Next(&rec, &idx));
  EXPECT_TRUE(scanner.status().IsCorruption()) << scanner.status().ToString();
}

TEST_F(HeapFileLargePageTest, CorruptCompressedPageFailsGetAndPrunedPin) {
  opts_.compress_pages = true;
  ASSERT_NE(WriteAndCorrupt(), 0u);  // stored compressed
  auto file = Reopen();
  std::string buf;
  Status s = file->Get(0, &buf);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The compressed-strip shortcut must not answer from unverified bytes.
  auto pred = Predicate::Compare(schema_, "c1", CompareOp::kEq, 1000);
  ASSERT_TRUE(pred.ok());
  const PreparedPredicate prepared(*pred, schema_);
  bool no_matches = false;
  auto pin = file->PinPageCounted(0, &prepared, &no_matches);
  ASSERT_FALSE(pin.ok());
  EXPECT_TRUE(pin.status().IsCorruption()) << pin.status().ToString();
}

// ----------------------------------------------------------- BitmapScanner

/// A two-stripe heap whose extents are half a page: stripe 0 holds low
/// c1 values, stripe 1 high ones, and their extents interleave so each
/// stripe's first page straddles two extents with the other stripe's in
/// between. Both stripes end on an open extent with an unfilled hole.
class BitmapScannerTest : public ::testing::Test {
 protected:
  static constexpr int32_t kLow = 1;
  static constexpr int32_t kHigh = 2000;

  BitmapScannerTest() : dir_("bitmap_scan"), pool_(1 << 20) {
    schema_ = testing_util::TestSchema(1);
  }

  void SetUp() override {
    HeapFile::Options probe_opts;
    probe_opts.page_size = 256;
    auto probe = HeapFile::Create(JoinPath(dir_.path(), "probe.dbhf"),
                                  schema_.record_size(), probe_opts, &pool_);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    rpp_ = (*probe)->records_per_page();
    ASSERT_GE(rpp_, 8u);

    StripedHeap::Options opts;
    opts.page_size = 256;
    opts.stripes = 2;
    opts.extent_records = rpp_ / 2;
    opts.schema = &schema_;
    auto heap = StripedHeap::Create(dir_.path(),
                                    schema_.record_size(), opts, &pool_);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(heap).MoveValueUnsafe();
    // Extents (R = records per page), base -> stripe-local records:
    //   [0, R/2)      stripe 0 [0, R/2)
    //   [R/2, R)      stripe 1 [0, R/2)
    //   [R, 3R/2)     stripe 0 [R/2, R)        page 0 of stripe 0 again
    //   [3R/2, 2R)    stripe 1 [R/2, 3R/4)     + hole [3R/2 + R/4, 2R)
    //   [2R, 5R/2)    stripe 0 [R, R + 1)      + hole [2R + 1, 5R/2)
    Append(0, rpp_ / 2, kLow);
    Append(1, rpp_ / 2, kHigh);
    Append(0, rpp_ / 2, kLow);
    Append(1, rpp_ / 4, kHigh);
    Append(0, 1, kLow);
    map_ = heap_->SnapshotMapping();
    ASSERT_EQ(map_.extents().size(), 5u);
    ASSERT_EQ(map_.bound(), 5 * rpp_ / 2);
  }

  void Append(uint32_t stripe, uint64_t count, int32_t c1) {
    std::string batch;
    std::vector<int64_t> pks;
    for (uint64_t i = 0; i < count; ++i) {
      pks.push_back(next_pk_++);
      batch += testing_util::MakeRecord(schema_, pks.back(), c1)
                   .data()
                   .ToString();
    }
    StripedHeap::RunList runs;
    ASSERT_OK(heap_->AppendBatch(stripe, batch, count, &runs));
    size_t k = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
      for (uint64_t g = runs[r].base; g < runs[r].base + runs[r].count; ++g) {
        records_.push_back({g, pks[k++], c1});
      }
    }
  }

  struct Placed {
    uint64_t global;
    int64_t pk;
    int32_t c1;
  };

  /// Every placed record except every fifth pk.
  Bitmap Selection() const {
    Bitmap bits;
    for (const Placed& p : records_) {
      if (p.pk % 5 == 3) continue;
      bits.EnsureBit(p.global);
      bits.Set(p.global);
    }
    return bits;
  }

  /// The (pk, position) pairs of the selection whose c1 passes \p keep,
  /// in position order.
  template <typename Keep>
  std::vector<std::pair<int64_t, uint64_t>> Expected(Keep keep) const {
    std::vector<Placed> sorted = records_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Placed& a, const Placed& b) {
                return a.global < b.global;
              });
    std::vector<std::pair<int64_t, uint64_t>> out;
    for (const Placed& p : sorted) {
      if (p.pk % 5 != 3 && keep(p.c1)) out.emplace_back(p.pk, p.global);
    }
    return out;
  }

  static std::vector<std::pair<int64_t, uint64_t>> Drain(BitmapScanner* s) {
    std::vector<std::pair<int64_t, uint64_t>> out;
    RecordRef rec;
    uint64_t idx;
    while (s->Next(&rec, &idx)) out.emplace_back(rec.pk(), idx);
    EXPECT_OK(s->status());
    return out;
  }

  uint64_t PageBytes(uint32_t stripe, uint64_t page_no) {
    auto page = map_.file(stripe)->PinPage(page_no);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    return page.ok() ? page.value().io_bytes : 0;
  }

  ScratchDir dir_;
  Schema schema_;
  BufferPool pool_;
  uint64_t rpp_ = 0;
  std::unique_ptr<StripedHeap> heap_;
  RecordMap map_;
  int64_t next_pk_ = 0;
  std::vector<Placed> records_;
};

TEST_F(BitmapScannerTest, StripedMapWithoutPredicate) {
  const Bitmap bits = Selection();
  BitmapScanner scanner(&map_, &schema_, &bits);
  ScanStats stats;
  scanner.EnablePruning(/*predicate=*/nullptr, &stats);
  EXPECT_EQ(Drain(&scanner), Expected([](int32_t) { return true; }));
  EXPECT_EQ(stats.pages_skipped, 0u);
  // Page 0 of each stripe is pinned twice — the scan leaves it for the
  // other stripe's extent and comes back — then stripe 0's page 1 once.
  EXPECT_EQ(stats.bytes_read,
            2 * PageBytes(0, 0) + 2 * PageBytes(1, 0) + PageBytes(0, 1));
}

TEST_F(BitmapScannerTest, StripedMapSkipsPagesByZoneMap) {
  const Bitmap bits = Selection();
  auto pred = Predicate::Compare(schema_, "c1", CompareOp::kGe, kHigh);
  ASSERT_TRUE(pred.ok());
  const PreparedPredicate prepared(*pred, schema_);
  BitmapScanner scanner(&map_, &schema_, &bits);
  ScanStats stats;
  scanner.EnablePruning(&prepared, &stats);
  // Stripe 0's rows never surface; stripe 1's all do (the scanner skips
  // pages, the caller's predicate would filter the rest).
  EXPECT_EQ(Drain(&scanner), Expected([](int32_t c1) { return c1 >= kHigh; }));
  // Stripe 0's page 0 is skipped once (the second extent on it is still
  // remembered as skipped), its tail page once; stripe 1's page 0 is
  // pinned once and reused when the scan returns to it.
  EXPECT_EQ(stats.pages_skipped, 2u);
  EXPECT_EQ(stats.bytes_read, PageBytes(1, 0));
}

TEST_F(BitmapScannerTest, SetBitInOpenExtentHoleIsCorruption) {
  Bitmap bits = Selection();
  const uint64_t hole = 3 * rpp_ / 2 + rpp_ / 4;  // stripe 1's open tail
  bits.EnsureBit(hole);
  bits.Set(hole);
  BitmapScanner scanner(&map_, &schema_, &bits);
  RecordRef rec;
  uint64_t idx;
  while (scanner.Next(&rec, &idx)) EXPECT_LT(idx, hole);
  EXPECT_TRUE(scanner.status().IsCorruption()) << scanner.status().ToString();
}

TEST_F(BitmapScannerTest, SingleFileMap) {
  // A hybrid segment's map: one extent from 0 over one file; positions
  // are the file's record indices.
  auto all_of = [](const HeapFile* file) {
    Bitmap bits(file->num_records());
    for (uint64_t i = 0; i < file->num_records(); ++i) bits.Set(i);
    return bits;
  };
  auto pred = Predicate::Compare(schema_, "c1", CompareOp::kGe, kHigh);
  ASSERT_TRUE(pred.ok());
  const PreparedPredicate prepared(*pred, schema_);
  {
    HeapFile* file = map_.file(1);
    const RecordMap map = RecordMap::OfFile(file);
    ASSERT_EQ(map.bound(), file->num_records());
    std::vector<std::pair<int64_t, uint64_t>> expected;
    for (const Placed& p : records_) {
      if (p.c1 == kHigh) expected.emplace_back(p.pk, expected.size());
    }
    const Bitmap bits = all_of(file);
    BitmapScanner scanner(&map, &schema_, &bits);
    ScanStats stats;
    scanner.EnablePruning(&prepared, &stats);
    EXPECT_EQ(Drain(&scanner), expected);
    EXPECT_EQ(stats.pages_skipped, 0u);
    EXPECT_EQ(stats.bytes_read, PageBytes(1, 0));
  }
  {
    // The HeapFile constructor builds the same map. Stripe 0's file holds
    // only low values, so both of its pages are skipped unread.
    const Bitmap bits = all_of(map_.file(0));
    BitmapScanner scanner(map_.file(0), &schema_, &bits);
    ScanStats stats;
    scanner.EnablePruning(&prepared, &stats);
    EXPECT_TRUE(Drain(&scanner).empty());
    EXPECT_EQ(stats.pages_skipped, 2u);
    EXPECT_EQ(stats.bytes_read, 0u);
  }
}

// -------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, HitAndMissAccounting) {
  ScratchDir dir("pool");
  BufferPool pool(1 << 20);
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string rec(32, 'r');
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*file)->Append(rec).ok());
  }
  std::string buf;
  ASSERT_OK((*file)->Get(0, &buf));
  const uint64_t misses_after_first = pool.misses();
  EXPECT_EQ(misses_after_first, 1u);
  ASSERT_OK((*file)->Get(1, &buf));  // same page -> hit
  EXPECT_EQ(pool.misses(), misses_after_first);
  EXPECT_GE(pool.hits(), 1u);

  // Each miss loads one whole page and is timed.
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits, pool.hits());
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.miss_bytes, 256u);
  EXPECT_GT(s.miss_load_ns, 0u);

  // The scan path's pins miss and hit through the same counters.
  pool.EvictAll();
  ASSERT_TRUE((*file)->PinPage(0).ok());
  ASSERT_TRUE((*file)->PinPage(0).ok());
  s = pool.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.miss_bytes, 512u);
  EXPECT_GE(s.hits, 2u);
}

TEST(BufferPoolTest, EvictionBoundsMemory) {
  ScratchDir dir("pool");
  BufferPool pool(1024);  // 4 tiny pages
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string rec(32, 'e');
  for (int i = 0; i < 7 * 64; ++i) {
    ASSERT_TRUE((*file)->Append(rec).ok());
  }
  std::string buf;
  for (uint64_t i = 0; i < (*file)->num_records(); i += 7) {
    ASSERT_OK((*file)->Get(i, &buf));
  }
  EXPECT_LE(pool.resident_bytes(), 1024u);
  pool.EvictAll();
  EXPECT_EQ(pool.resident_bytes(), 0u);
}

TEST(BufferPoolTest, EvictedPagesStayValidForHolders) {
  ScratchDir dir("pool");
  BufferPool pool(300);  // roughly one page
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string rec(32, 'v');
  for (int i = 0; i < 3 * 64; ++i) {
    ASSERT_TRUE((*file)->Append(rec).ok());
  }
  auto pinned = (*file)->PinPage(0);
  ASSERT_TRUE(pinned.ok());
  // Force eviction of page 0 by touching others.
  std::string buf;
  ASSERT_OK((*file)->Get(64, &buf));
  ASSERT_OK((*file)->Get(128, &buf));
  // The pinned view is still readable (shared ownership).
  EXPECT_EQ(pinned->payload[0], 'v');
}

TEST(BufferPoolTest, CountersReadableWhileReadersLoadPages) {
  ScratchDir dir("pool");
  BufferPool pool(512);  // two pages: readers keep missing
  HeapFile::Options opts;
  opts.page_size = 256;
  auto file = HeapFile::Create(JoinPath(dir.path(), "t.dbhf"), 32, opts,
                               &pool);
  ASSERT_TRUE(file.ok());
  std::string rec(32, 'c');
  for (int i = 0; i < 8 * 7; ++i) ASSERT_TRUE((*file)->Append(rec).ok());
  constexpr int kReaders = 3;
  constexpr int kReads = 300;
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const BufferPoolStats s = pool.stats();
      EXPECT_GE(s.hits + s.misses, last);
      last = s.hits + s.misses;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::string buf;
      for (int i = 0; i < kReads; ++i) {
        EXPECT_OK((*file)->Get(static_cast<uint64_t>((i * 7 + t) % 48), &buf));
      }
    });
  }
  for (std::thread& r : readers) r.join();
  done = true;
  watcher.join();
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, uint64_t{kReaders} * kReads);
  EXPECT_EQ(s.miss_bytes, s.misses * 256);
}

}  // namespace
}  // namespace decibel
