// The persistence layer's correctness story, bottom-up: coding/CRC
// primitives, index-blob round trips (including RNG-state continuation
// equivalence), journal framing with torn-tail semantics, snapshot
// framing, and the nn checkpoint hardening — with fault injection
// (bit flips, truncations, adversarial lengths) at every layer. The
// pinned property throughout: corrupt input yields a clean Status error
// and leaves the target object bit-identical; it never crashes, hangs,
// or silently commits partial state. End-to-end crash recovery lives in
// recovery_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/split.h"
#include "data/synthetic.h"
#include "index/brute_force_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "models/fism.h"
#include "nn/parameter.h"
#include "nn/serialize.h"
#include "persist/fs.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "simd/kernels.h"
#include "testing/temp_dir.h"
#include "util/coding.h"
#include "util/random.h"

namespace sccf::persist {
namespace {

using core::RealTimeService;
using sccf::testing::TempDir;
using Event = RealTimeService::Event;

void WriteBytes(const std::string& path, std::string_view bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SCCF_CHECK(f.good()) << path;
}

// ------------------------------------------------------------- coding

TEST(CodingTest, FixedWidthRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  PutI32(&buf, -7);
  PutI64(&buf, -1234567890123ll);
  PutF32(&buf, 3.25f);
  PutLengthPrefixed(&buf, "hello");

  ByteReader r(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  float f = 0.0f;
  std::string_view s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadFixed32(&u32).ok());
  ASSERT_TRUE(r.ReadFixed64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadF32(&f).ok());
  ASSERT_TRUE(r.ReadLengthPrefixed(&s).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(f, 3.25f);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(CodingTest, ReaderShortBufferErrorsWithoutAdvancing) {
  const std::string buf = "abc";
  ByteReader r(buf);
  uint32_t v = 0;
  EXPECT_FALSE(r.ReadFixed32(&v).ok());
  EXPECT_EQ(r.position(), 0u);  // failed read leaves the cursor usable
  uint8_t b = 0;
  EXPECT_TRUE(r.ReadU8(&b).ok());
  EXPECT_EQ(b, 'a');
}

TEST(CodingTest, AdversarialLengthsAreCleanErrorsNotAllocations) {
  // A length prefix claiming 2^60 bytes in a 12-byte buffer must be
  // rejected before any allocation happens.
  std::string buf;
  PutFixed64(&buf, uint64_t{1} << 60);
  buf += "puny";
  ByteReader r(buf);
  std::string_view s;
  EXPECT_FALSE(r.ReadLengthPrefixed(&s).ok());

  ByteReader r2(buf);
  std::vector<float> floats;
  EXPECT_FALSE(r2.ReadFloats(size_t{1} << 60, &floats).ok());
  EXPECT_TRUE(floats.empty());
}

TEST(CodingTest, Crc32MatchesKnownVectorsAndExtends) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xcbf43926.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Extend(Crc32("1234"), "56789"), Crc32("123456789"));
}

// ------------------------------------------------------------ journal

std::vector<JournalRecord> TwoRecords() {
  std::vector<JournalRecord> recs(2);
  recs[0].shard = 1;
  recs[0].seq = 5;
  recs[0].events = {{10, 20, 100}, {11, 21, 101}};
  recs[1].shard = 0;
  recs[1].seq = 9;
  recs[1].events = {{3, 7, -50}};
  return recs;
}

std::string EncodeAll(const std::vector<JournalRecord>& recs) {
  std::string bytes;
  for (const JournalRecord& r : recs) {
    bytes += EncodeJournalRecord(
        r.shard, r.seq, std::span<const Event>(r.events));
  }
  return bytes;
}

void ExpectRecordsEqual(const std::vector<JournalRecord>& got,
                        const std::vector<JournalRecord>& want,
                        size_t want_count) {
  ASSERT_EQ(got.size(), want_count);
  for (size_t i = 0; i < want_count; ++i) {
    EXPECT_EQ(got[i].shard, want[i].shard) << "record " << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << "record " << i;
    ASSERT_EQ(got[i].events.size(), want[i].events.size()) << "record " << i;
    for (size_t e = 0; e < want[i].events.size(); ++e) {
      EXPECT_EQ(got[i].events[e].user, want[i].events[e].user);
      EXPECT_EQ(got[i].events[e].item, want[i].events[e].item);
      EXPECT_EQ(got[i].events[e].ts, want[i].events[e].ts);
    }
  }
}

TEST(JournalTest, EncodeDecodeRoundTrip) {
  const auto recs = TwoRecords();
  const std::string bytes = EncodeAll(recs);
  std::vector<JournalRecord> out;
  size_t valid = 0;
  ASSERT_TRUE(
      DecodeJournal(bytes, /*allow_torn_tail=*/false, &out, &valid).ok());
  EXPECT_EQ(valid, bytes.size());
  ExpectRecordsEqual(out, recs, 2);
}

TEST(JournalTest, TruncationSweepTornVsStrict) {
  const auto recs = TwoRecords();
  const size_t len1 =
      EncodeJournalRecord(recs[0].shard, recs[0].seq,
                          std::span<const Event>(recs[0].events))
          .size();
  const std::string bytes = EncodeAll(recs);

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string_view prefix(bytes.data(), cut);
    std::vector<JournalRecord> out;
    size_t valid = 0;
    // Torn mode: every truncation point is a clean stop, yielding
    // exactly the records that fit entirely before the cut.
    const Status torn = DecodeJournal(prefix, true, &out, &valid);
    ASSERT_TRUE(torn.ok()) << "cut=" << cut << ": " << torn.ToString();
    const size_t expect =
        cut >= bytes.size() ? 2 : (cut >= len1 ? 1 : 0);
    ExpectRecordsEqual(out, recs, expect);
    EXPECT_LE(valid, cut);

    // Strict mode: only exact record boundaries are acceptable.
    std::vector<JournalRecord> out2;
    size_t valid2 = 0;
    const Status strict = DecodeJournal(prefix, false, &out2, &valid2);
    const bool boundary =
        cut == 0 || cut == len1 || cut == bytes.size();
    EXPECT_EQ(strict.ok(), boundary) << "cut=" << cut;
    if (!strict.ok()) {
      EXPECT_EQ(strict.code(), StatusCode::kIoError) << "cut=" << cut;
    }
  }
}

TEST(JournalTest, BitFlipSweepTearsOnlyAtTheTail) {
  const auto recs = TwoRecords();
  const size_t len1 =
      EncodeJournalRecord(recs[0].shard, recs[0].seq,
                          std::span<const Event>(recs[0].events))
          .size();
  const std::string bytes = EncodeAll(recs);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);

    // Torn mode: a flip in the LAST record is indistinguishable from a
    // torn append and ends history cleanly after record 1. A flip in
    // record 1 leaves an intact record 2 beyond the damage — that can
    // never be a tear, so it must fail loudly instead of silently
    // truncating acknowledged history. (CRC-32 detects any burst error
    // shorter than 32 bits, so a single flipped byte is always caught.)
    std::vector<JournalRecord> out;
    size_t valid = 0;
    const Status torn = DecodeJournal(mutated, true, &out, &valid);
    if (i < len1) {
      EXPECT_EQ(torn.code(), StatusCode::kIoError) << "flip@" << i;
    } else {
      ASSERT_TRUE(torn.ok()) << "flip@" << i << ": " << torn.ToString();
      ASSERT_EQ(out.size(), 1u) << "flip@" << i;
      ExpectRecordsEqual({out[0]}, recs, 1);
    }

    // Strict mode: every flip must surface as an error.
    std::vector<JournalRecord> out2;
    size_t valid2 = 0;
    EXPECT_FALSE(DecodeJournal(mutated, false, &out2, &valid2).ok())
        << "flip@" << i;
  }
}

TEST(JournalTest, ZeroFilledTailIsATornTailNotMidFileCorruption) {
  // Some filesystems (delayed allocation + power loss) leave a
  // zero-filled region where the torn append would be. An 8-byte zero
  // header decodes as len=0 crc=0, and Crc32("")==0 — the forward scan
  // must not mistake that for an intact record and fail recovery.
  const auto recs = TwoRecords();
  const std::string bytes = EncodeAll(recs) + std::string(4096, '\0');

  std::vector<JournalRecord> out;
  size_t valid = 0;
  const Status torn = DecodeJournal(bytes, true, &out, &valid);
  ASSERT_TRUE(torn.ok()) << torn.ToString();
  ExpectRecordsEqual(out, recs, 2);
  EXPECT_EQ(valid, bytes.size() - 4096);

  std::vector<JournalRecord> out2;
  size_t valid2 = 0;
  EXPECT_FALSE(DecodeJournal(bytes, false, &out2, &valid2).ok());
}

TEST(JournalTest, IntactRecordBeyondDamageFailsEvenInTornMode) {
  // Surgical version of the bit-flip sweep's property: damage in
  // record 1 of 3 (torn mode) is reported as corruption because
  // records 2 and 3 are intact past it — truncating there would drop
  // two acknowledged records, not a torn append.
  auto recs = TwoRecords();
  recs.push_back(recs[0]);
  recs[2].seq = 11;
  const std::string r1 = EncodeJournalRecord(
      recs[0].shard, recs[0].seq, std::span<const Event>(recs[0].events));
  const std::string bytes = EncodeAll(recs);

  std::string mid = bytes;
  mid[r1.size() / 2] = static_cast<char>(mid[r1.size() / 2] ^ 0x01);
  std::vector<JournalRecord> out;
  size_t valid = 0;
  EXPECT_EQ(DecodeJournal(mid, true, &out, &valid).code(),
            StatusCode::kIoError);
}

TEST(JournalTest, StructuralErrorInsideValidCrcIsAlwaysIoError) {
  // A record whose payload checksums correctly but whose event count
  // disagrees with the payload length is corruption that cannot be a
  // torn tail — both modes must reject it.
  std::string payload;
  PutFixed32(&payload, 0);                   // shard
  PutFixed64(&payload, 1);                   // seq
  PutFixed32(&payload, 5);                   // claims 5 events...
  PutI32(&payload, 1);                       // ...carries half of one
  std::string bytes;
  PutFixed32(&bytes, static_cast<uint32_t>(payload.size()));
  PutFixed32(&bytes, Crc32(payload));
  bytes += payload;

  for (bool torn : {true, false}) {
    std::vector<JournalRecord> out;
    size_t valid = 0;
    const Status s = DecodeJournal(bytes, torn, &out, &valid);
    EXPECT_EQ(s.code(), StatusCode::kIoError) << "torn=" << torn;
    EXPECT_TRUE(out.empty());
  }
}

TEST(JournalTest, FileNameRoundTrip) {
  EXPECT_EQ(JournalFileName(7), "journal-000007");
  uint64_t gen = 0;
  EXPECT_TRUE(ParseJournalFileName("journal-000007", &gen));
  EXPECT_EQ(gen, 7u);
  EXPECT_TRUE(ParseJournalFileName(JournalFileName(1234567), &gen));
  EXPECT_EQ(gen, 1234567u);
  EXPECT_FALSE(ParseJournalFileName("journal-", &gen));
  EXPECT_FALSE(ParseJournalFileName("journal-12x", &gen));
  EXPECT_FALSE(ParseJournalFileName("snapshot", &gen));
  EXPECT_FALSE(ParseJournalFileName("journal-000007.tmp", &gen));

  // Overflowing numeric parts must be rejected, not wrapped: a wrapped
  // generation could mis-order replay and misclassify which file gets
  // torn-tail tolerance.
  EXPECT_TRUE(
      ParseJournalFileName("journal-18446744073709551615", &gen));  // 2^64-1
  EXPECT_EQ(gen, UINT64_MAX);
  EXPECT_FALSE(
      ParseJournalFileName("journal-18446744073709551616", &gen));  // 2^64
  EXPECT_FALSE(ParseJournalFileName("journal-99999999999999999999", &gen));
  EXPECT_FALSE(
      ParseJournalFileName("journal-00018446744073709551616", &gen));
}

TEST(JournalTest, FailedAppendSealsTheWriter) {
  // /dev/full accepts the open but fails every write with ENOSPC — the
  // same shape as a disk-full episode in production.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  auto writer = JournalWriter::Open("/dev/full", /*fsync_each=*/false);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const auto recs = TwoRecords();

  const Status first = (*writer)->Append(
      recs[0].shard, recs[0].seq, std::span<const Event>(recs[0].events));
  EXPECT_EQ(first.code(), StatusCode::kIoError) << first.ToString();
  EXPECT_TRUE((*writer)->failed());

  // Sealed: the damaged generation must never accept another record,
  // or replay could order it against the failed one.
  const Status second = (*writer)->Append(
      recs[1].shard, recs[1].seq, std::span<const Event>(recs[1].events));
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition)
      << second.ToString();
}

TEST(JournalTest, PoisonForTestingMatchesRealSealBehavior) {
  TempDir dir;
  const std::string path = dir.file("journal-000001");
  auto recs = TwoRecords();
  auto writer = JournalWriter::Open(path, /*fsync_each=*/false);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)
                  ->Append(recs[0].shard, recs[0].seq,
                           std::span<const Event>(recs[0].events))
                  .ok());
  (*writer)->PoisonForTesting();
  EXPECT_TRUE((*writer)->failed());
  EXPECT_EQ((*writer)
                ->Append(recs[1].shard, recs[1].seq,
                         std::span<const Event>(recs[1].events))
                .code(),
            StatusCode::kFailedPrecondition);
  // The record accepted before the seal is still intact on disk.
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::vector<JournalRecord> out;
  size_t valid = 0;
  ASSERT_TRUE(DecodeJournal(*bytes, false, &out, &valid).ok());
  ExpectRecordsEqual(out, recs, 1);
}

TEST(JournalTest, WriterAppendsReadableRecordsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.file("journal-000001");
  auto recs = TwoRecords();
  {
    auto writer = JournalWriter::Open(path, /*fsync_each=*/false);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)
                    ->Append(recs[0].shard, recs[0].seq,
                             std::span<const Event>(recs[0].events))
                    .ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  {
    // Reopen appends; it must not truncate what is already there.
    auto writer = JournalWriter::Open(path, /*fsync_each=*/true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)
                    ->Append(recs[1].shard, recs[1].seq,
                             std::span<const Event>(recs[1].events))
                    .ok());
  }
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::vector<JournalRecord> out;
  size_t valid = 0;
  ASSERT_TRUE(DecodeJournal(*bytes, false, &out, &valid).ok());
  ExpectRecordsEqual(out, recs, 2);
}

// ----------------------------------------------------------------- fs

TEST(FsTest, WriteFileAtomicRoundTripAndReplace) {
  TempDir dir;
  const std::string path = dir.file("blob");
  ASSERT_TRUE(WriteFileAtomic(path, "first version", false).ok());
  auto got = ReadFileToString(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "first version");

  ASSERT_TRUE(WriteFileAtomic(path, "second version", true).ok());
  got = ReadFileToString(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "second version");
  EXPECT_FALSE(PathExists(path + ".tmp"));  // no droppings on success
}

TEST(FsTest, WriteFileAtomicFailureLeavesOldFileIntact) {
  TempDir dir;
  const std::string path = dir.file("blob");
  ASSERT_TRUE(WriteFileAtomic(path, "precious", false).ok());
  // Occupy the temp path with a directory: the new write cannot even
  // open its temp file, and must leave the old contents untouched.
  ASSERT_TRUE(EnsureDir(path + ".tmp").ok());
  const Status failed = WriteFileAtomic(path, "clobber", false);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  auto got = ReadFileToString(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "precious");
  ::rmdir((path + ".tmp").c_str());
}

TEST(FsTest, DirHelpers) {
  TempDir dir;
  const std::string sub = dir.file("sub");
  ASSERT_TRUE(EnsureDir(sub).ok());
  ASSERT_TRUE(EnsureDir(sub).ok());  // idempotent
  EXPECT_TRUE(PathExists(sub));
  EXPECT_FALSE(PathExists(dir.file("nope")));

  ASSERT_TRUE(WriteFileAtomic(sub + "/a", "x", false).ok());
  ASSERT_TRUE(WriteFileAtomic(sub + "/b", "y", false).ok());
  auto names = ListDirFiles(sub);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);  // regular files only, no . / ..

  ASSERT_TRUE(RemoveFileIfExists(sub + "/a").ok());
  ASSERT_TRUE(RemoveFileIfExists(sub + "/a").ok());  // missing is OK
  names = ListDirFiles(sub);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  EXPECT_FALSE(ReadFileToString(sub + "/a").ok());
}

// ------------------------------------------------- index serialization

std::vector<float> MakeVec(size_t dim, uint64_t seed) {
  Rng rng(seed * 977 + 13);
  std::vector<float> v(dim);
  for (size_t i = 0; i < dim; ++i) v[i] = rng.UniformFloat() * 2.0f - 1.0f;
  return v;
}

void ExpectSameSearch(const index::VectorIndex& a,
                      const index::VectorIndex& b, size_t dim, size_t k) {
  for (uint64_t q = 0; q < 5; ++q) {
    const std::vector<float> query = MakeVec(dim, 9000 + q);
    auto ra = a.Search(query.data(), k);
    auto rb = b.Search(query.data(), k);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_EQ(ra->size(), rb->size()) << "query " << q;
    for (size_t i = 0; i < ra->size(); ++i) {
      EXPECT_EQ((*ra)[i].id, (*rb)[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ((*ra)[i].score, (*rb)[i].score);  // bit-exact, not approx
    }
  }
}

TEST(IndexSerializeTest, BruteForceRoundTripSlotAndNonSlotIds) {
  constexpr size_t kDim = 8;
  for (const bool slot_ids : {true, false}) {
    index::BruteForceIndex a(kDim, index::Metric::kCosine);
    for (int i = 0; i < 30; ++i) {
      const int id = slot_ids ? i : i * 7 + 3;
      ASSERT_TRUE(a.Add(id, MakeVec(kDim, i).data()).ok());
    }
    std::string blob;
    a.SerializeTo(&blob);
    index::BruteForceIndex b(kDim, index::Metric::kCosine);
    ASSERT_TRUE(b.DeserializeFrom(blob).ok());
    EXPECT_EQ(b.size(), a.size());
    ExpectSameSearch(a, b, kDim, 10);
  }
}

TEST(IndexSerializeTest, HnswRoundTripContinuesIdentically) {
  constexpr size_t kDim = 8;
  index::HnswIndex::Options opts;
  opts.m = 6;
  opts.ef_construction = 30;
  opts.ef_search = 30;
  index::HnswIndex a(kDim, index::Metric::kCosine, opts);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(a.Add(i, MakeVec(kDim, i).data()).ok());
  }
  // Overwrite a few ids so the blob carries tombstoned graph nodes.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(a.Add(i, MakeVec(kDim, 100 + i).data()).ok());
  }
  std::string blob;
  a.SerializeTo(&blob);
  index::HnswIndex b(kDim, index::Metric::kCosine, opts);
  ASSERT_TRUE(b.DeserializeFrom(blob).ok());
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.num_graph_nodes(), a.num_graph_nodes());
  ExpectSameSearch(a, b, kDim, 10);

  // The critical persistence property: a restored index must evolve
  // bit-identically — that requires the serialized RNG state, since
  // future level draws shape the graph.
  for (int i = 40; i < 60; ++i) {
    const std::vector<float> v = MakeVec(kDim, i);
    ASSERT_TRUE(a.Add(i, v.data()).ok());
    ASSERT_TRUE(b.Add(i, v.data()).ok());
  }
  EXPECT_EQ(b.num_graph_nodes(), a.num_graph_nodes());
  ExpectSameSearch(a, b, kDim, 10);
}

TEST(IndexSerializeTest, IvfRoundTripContinuesIdentically) {
  constexpr size_t kDim = 8;
  index::IvfFlatIndex::Options opts;
  opts.nlist = 8;
  opts.nprobe = 3;
  index::IvfFlatIndex a(kDim, index::Metric::kCosine, opts);
  std::vector<float> train;
  for (int i = 0; i < 32; ++i) {
    const std::vector<float> v = MakeVec(kDim, 500 + i);
    train.insert(train.end(), v.begin(), v.end());
  }
  ASSERT_TRUE(a.Train(train, 32).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(a.Add(i, MakeVec(kDim, i).data()).ok());
  }
  std::string blob;
  a.SerializeTo(&blob);

  // The restoring index is constructed with a *different* nlist: the
  // blob's trained geometry is authoritative (a bootstrap-clamped nlist
  // cannot be re-derived by the restoring process).
  index::IvfFlatIndex::Options other = opts;
  other.nlist = 64;
  index::IvfFlatIndex b(kDim, index::Metric::kCosine, other);
  ASSERT_TRUE(b.DeserializeFrom(blob).ok());
  EXPECT_TRUE(b.trained());
  EXPECT_EQ(b.size(), a.size());
  ExpectSameSearch(a, b, kDim, 10);

  for (int i = 20; i < 50; ++i) {  // reassignments + fresh ids
    const std::vector<float> v = MakeVec(kDim, 2000 + i);
    ASSERT_TRUE(a.Add(i, v.data()).ok());
    ASSERT_TRUE(b.Add(i, v.data()).ok());
  }
  ExpectSameSearch(a, b, kDim, 10);
}

TEST(IndexSerializeTest, UntrainedIvfRoundTrips) {
  index::IvfFlatIndex::Options opts;
  opts.nlist = 8;
  index::IvfFlatIndex a(4, index::Metric::kCosine, opts);
  std::string blob;
  a.SerializeTo(&blob);
  index::IvfFlatIndex b(4, index::Metric::kCosine, opts);
  ASSERT_TRUE(b.DeserializeFrom(blob).ok());
  EXPECT_FALSE(b.trained());
  EXPECT_EQ(b.size(), 0u);
}

// Populates one backend on a fixed seeded history that reaches every
// piece of blob state: brute force gets non-slot ids after a Remove,
// HNSW gets a tombstone rebuild followed by fresh tombstones, IVF gets
// re-added ids (reassignments) and a removal.
std::string PinnedIndexBlob(char backend, quant::Storage storage,
                            index::Metric metric) {
  constexpr size_t kDim = 8;
  std::unique_ptr<index::VectorIndex> idx;
  switch (backend) {
    case 'B': {
      idx = std::make_unique<index::BruteForceIndex>(kDim, metric, storage);
      for (int i = 0; i < 40; ++i) {
        SCCF_CHECK(idx->Add(i, MakeVec(kDim, i).data()).ok());
      }
      SCCF_CHECK(idx->Remove(5).ok());
      for (int i : {100, 3, 101, 39}) {
        SCCF_CHECK(idx->Add(i, MakeVec(kDim, 300 + i).data()).ok());
      }
      break;
    }
    case 'H': {
      index::HnswIndex::Options opts;
      opts.m = 6;
      opts.ef_construction = 30;
      opts.ef_search = 30;
      auto h = std::make_unique<index::HnswIndex>(kDim, metric, opts, storage);
      for (int i = 0; i < 70; ++i) {
        SCCF_CHECK(h->Add(i, MakeVec(kDim, i).data()).ok());
      }
      for (int i = 0; i < 30; ++i) {  // crosses the rebuild bound once
        SCCF_CHECK(h->Add(i, MakeVec(kDim, 400 + i).data()).ok());
      }
      for (int i : {40, 41, 42}) SCCF_CHECK(h->Remove(i).ok());
      SCCF_CHECK(h->num_graph_nodes() > h->size());
      idx = std::move(h);
      break;
    }
    default: {
      index::IvfFlatIndex::Options opts;
      opts.nlist = 4;
      opts.nprobe = 2;
      auto ivf =
          std::make_unique<index::IvfFlatIndex>(kDim, metric, opts, storage);
      std::vector<float> train;
      for (int i = 0; i < 32; ++i) {
        const std::vector<float> v = MakeVec(kDim, 500 + i);
        train.insert(train.end(), v.begin(), v.end());
      }
      SCCF_CHECK(ivf->Train(train, 32).ok());
      for (int i = 0; i < 40; ++i) {
        SCCF_CHECK(ivf->Add(i, MakeVec(kDim, i).data()).ok());
      }
      for (int i = 10; i < 20; ++i) {
        SCCF_CHECK(ivf->Add(i, MakeVec(kDim, 700 + i).data()).ok());
      }
      SCCF_CHECK(ivf->Remove(12).ok());
      idx = std::move(ivf);
      break;
    }
  }
  std::string blob;
  idx->SerializeTo(&blob);
  return blob;
}

// Pins the index blob format byte for byte: CRC-32 of SerializeTo for
// every backend x storage x metric, under every SIMD variant this CPU
// supports (kernel rounding differs per variant, and so do the stored
// normalised rows and HNSW edges). A storage refactor that changes one
// byte of any blob fails here.
TEST(IndexSerializeTest, BlobFormatIsPinnedPerBackendStorageAndMetric) {
  // [variant][backend B/H/I][storage fp32/sq8][metric cosine/ip]
  constexpr uint32_t kCrc[3][3][2][2] = {
      {{{0x2e3337bbu, 0xf31cb031u}, {0x7d3c0406u, 0x57436d45u}},    // scalar
       {{0x36e603feu, 0x37d93315u}, {0x48d8ee79u, 0xc26cc179u}},
       {{0xf17e0d1du, 0x2537ff72u}, {0x5c69d61cu, 0x07679766u}}},
      {{{0x812332e3u, 0xf31cb031u}, {0x4d907d27u, 0x57436d45u}},    // avx2
       {{0xc4ea1131u, 0x37d93315u}, {0x4c82acf9u, 0xc26cc179u}},
       {{0xecf75040u, 0x2537ff72u}, {0xad32716eu, 0x07679766u}}},
      {{{0x812332e3u, 0xf31cb031u}, {0x4d907d27u, 0x57436d45u}},    // avx512
       {{0xc4ea1131u, 0x37d93315u}, {0x4c82acf9u, 0xc26cc179u}},
       {{0xecf75040u, 0x2537ff72u}, {0xad32716eu, 0x07679766u}}}};
  const simd::Variant active = simd::ActiveVariant();
  for (simd::Variant v : {simd::Variant::kScalar, simd::Variant::kAvx2,
                          simd::Variant::kAvx512}) {
    if (!simd::VariantSupported(v)) continue;
    ASSERT_TRUE(simd::ForceVariant(v).ok());
    const char backends[] = {'B', 'H', 'I'};
    for (int b = 0; b < 3; ++b) {
      for (int s = 0; s < 2; ++s) {
        for (int m = 0; m < 2; ++m) {
          const std::string blob = PinnedIndexBlob(
              backends[b], static_cast<quant::Storage>(s),
              m == 0 ? index::Metric::kCosine : index::Metric::kInnerProduct);
          EXPECT_EQ(Crc32(blob), kCrc[static_cast<int>(v)][b][s][m])
              << simd::VariantName(v) << " backend " << backends[b]
              << " storage " << s << " metric " << m;
        }
      }
    }
  }
  ASSERT_TRUE(simd::ForceVariant(active).ok());
}

// One node of a hand-built HNSW blob: its level field, its row, and the
// neighbor lists actually written (normally level + 1 of them).
struct CraftedNode {
  int32_t level = 0;
  std::vector<float> row;
  std::vector<std::vector<int>> lists;
};

// An fp32 dim-4 HNSW blob with entry point 0 and live external ids 0..n-1.
std::string CraftedHnswBlob(int32_t max_level,
                            const std::vector<CraftedNode>& nodes) {
  std::string blob;
  PutU8(&blob, 'H');
  PutU8(&blob, static_cast<uint8_t>(quant::Storage::kFp32));
  PutFixed64(&blob, 4);  // dim
  PutI32(&blob, 0);      // entry point
  PutI32(&blob, max_level);
  for (int i = 0; i < 4; ++i) PutFixed64(&blob, i + 1);  // rng state
  PutU8(&blob, 0);
  PutF32(&blob, 0.0f);
  PutFixed64(&blob, nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    PutI32(&blob, static_cast<int32_t>(i));  // external id
    PutU8(&blob, 0);                         // live
    PutI32(&blob, nodes[i].level);
    PutFloats(&blob, nodes[i].row.data(), 4);
    for (const std::vector<int>& list : nodes[i].lists) {
      PutFixed64(&blob, list.size());
      for (int nb : list) PutI32(&blob, nb);
    }
  }
  return blob;
}

TEST(IndexSerializeTest, HnswRejectsLevelsTheBlobCannotHold) {
  index::HnswIndex target(4, index::Metric::kCosine, {});
  ASSERT_TRUE(target.Add(77, MakeVec(4, 77).data()).ok());
  std::string before;
  target.SerializeTo(&before);
  auto expect_rejected = [&](const std::string& blob, const char* what) {
    EXPECT_FALSE(target.DeserializeFrom(blob).ok()) << what;
    std::string after;
    target.SerializeTo(&after);
    EXPECT_EQ(after, before) << what;
  };

  // The well-formed two-level graph loads, so only the field each case
  // below breaks is at fault.
  const std::vector<float> a = {1, 0, 0, 0}, b = {0, 1, 0, 0};
  index::HnswIndex ok(4, index::Metric::kCosine, {});
  ASSERT_TRUE(ok.DeserializeFrom(CraftedHnswBlob(
                                     1, {{1, a, {{1}, {}}}, {0, b, {{0}}}}))
                  .ok());
  EXPECT_EQ(ok.size(), 2u);

  // A level of 2^31 - 2 would size 2^31 - 1 neighbor lists from a blob
  // that holds one 8-byte count.
  expect_rejected(CraftedHnswBlob(0x7ffffffe, {{0x7ffffffe, a, {{}}}}),
                  "huge level");
  // Search descends from max_level through the entry node's lists, and
  // follows a level-1 edge only into nodes that have level 1.
  expect_rejected(CraftedHnswBlob(3, {{0, a, {{}}}}),
                  "entry point below max level");
  expect_rejected(
      CraftedHnswBlob(1, {{1, a, {{1}, {1}}}, {0, b, {{0}}}}),
      "edge into a lower-level node");
}

TEST(IndexSerializeTest, BruteForceRejectsIdsAreSlotsFlagOverForeignIds) {
  constexpr size_t kDim = 4;
  auto blob_with_flag = [&](uint8_t ids_are_slots) {
    std::string blob;
    PutU8(&blob, 'B');
    PutU8(&blob, static_cast<uint8_t>(quant::Storage::kFp32));
    PutU8(&blob, ids_are_slots);
    PutFixed64(&blob, kDim);
    PutFixed64(&blob, 2);
    PutI32(&blob, 5);
    PutI32(&blob, 9);
    const float rows[2 * kDim] = {1, 0, 0, 0, 0, 1, 0, 0};
    PutFloats(&blob, rows, 2 * kDim);
    return blob;
  };
  // Without the flag the blob is fine and Search reports the stored ids.
  index::BruteForceIndex honest(kDim, index::Metric::kCosine);
  ASSERT_TRUE(honest.DeserializeFrom(blob_with_flag(0)).ok());
  const float q[kDim] = {1, 0.5f, 0, 0};
  auto hits = honest.Search(q, 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].id, 5);
  EXPECT_EQ((*hits)[1].id, 9);

  // With it, Search would report slots 0 and 1 as ids: reject, untouched.
  index::BruteForceIndex target(kDim, index::Metric::kCosine);
  ASSERT_TRUE(target.Add(77, MakeVec(kDim, 77).data()).ok());
  std::string before;
  target.SerializeTo(&before);
  EXPECT_FALSE(target.DeserializeFrom(blob_with_flag(1)).ok());
  std::string after;
  target.SerializeTo(&after);
  EXPECT_EQ(after, before);
}

TEST(IndexSerializeTest, TruncationSweepRejectsEveryPrefix) {
  constexpr size_t kDim = 4;
  // One blob per backend, swept in full: every strict prefix must be a
  // clean error that leaves the (pre-populated) target untouched.
  std::vector<std::string> blobs;
  {
    index::BruteForceIndex bf(kDim, index::Metric::kCosine);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(bf.Add(i, MakeVec(kDim, i).data()).ok());
    }
    blobs.emplace_back();
    bf.SerializeTo(&blobs.back());
  }
  {
    index::HnswIndex::Options opts;
    opts.m = 4;
    index::HnswIndex h(kDim, index::Metric::kCosine, opts);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(h.Add(i, MakeVec(kDim, i).data()).ok());
    }
    blobs.emplace_back();
    h.SerializeTo(&blobs.back());
  }
  {
    index::IvfFlatIndex::Options opts;
    opts.nlist = 2;
    index::IvfFlatIndex ivf(kDim, index::Metric::kCosine, opts);
    std::vector<float> train;
    for (int i = 0; i < 8; ++i) {
      const std::vector<float> v = MakeVec(kDim, i);
      train.insert(train.end(), v.begin(), v.end());
    }
    ASSERT_TRUE(ivf.Train(train, 8).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(ivf.Add(i, MakeVec(kDim, i).data()).ok());
    }
    blobs.emplace_back();
    ivf.SerializeTo(&blobs.back());
  }

  for (const std::string& blob : blobs) {
    // Deserialize every strict prefix into a target that already holds
    // different data; the target must come through unscathed.
    index::BruteForceIndex bf_target(kDim, index::Metric::kCosine);
    index::HnswIndex hnsw_target(kDim, index::Metric::kCosine, {});
    index::IvfFlatIndex ivf_target(kDim, index::Metric::kCosine, {});
    ASSERT_TRUE(bf_target.Add(77, MakeVec(kDim, 77).data()).ok());
    ASSERT_TRUE(hnsw_target.Add(77, MakeVec(kDim, 77).data()).ok());
    index::VectorIndex* targets[] = {&bf_target, &hnsw_target, &ivf_target};
    for (size_t cut = 0; cut < blob.size(); ++cut) {
      const std::string_view prefix(blob.data(), cut);
      for (index::VectorIndex* target : targets) {
        const size_t size_before = target->size();
        EXPECT_FALSE(target->DeserializeFrom(prefix).ok())
            << "cut=" << cut;
        EXPECT_EQ(target->size(), size_before) << "cut=" << cut;
      }
    }
    // Wrong-backend blobs at full length are also rejected cleanly
    // (tag mismatch), except into the matching backend.
    int accepted = 0;
    for (index::VectorIndex* target : targets) {
      if (target->DeserializeFrom(blob).ok()) ++accepted;
    }
    EXPECT_EQ(accepted, 1);
  }
}

// --------------------------------------------- snapshot framing + CRC

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "persist-test";
    cfg.num_users = 60;
    cfg.num_items = 90;
    cfg.num_clusters = 6;
    cfg.min_actions = 8;
    cfg.max_actions = 16;
    cfg.seed = 91;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);
    models::Fism::Options fopts;
    fopts.dim = 8;
    fopts.epochs = 0;  // untrained: deterministic weights, instant Fit
    fism_ = new models::Fism(fopts);
    SCCF_CHECK(fism_->Fit(*split_).ok());
  }
  static void TearDownTestSuite() {
    delete fism_;
    delete split_;
    delete dataset_;
    fism_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static RealTimeService::Options BaseOptions() {
    RealTimeService::Options opts;
    opts.beta = 8;
    opts.num_shards = 3;
    return opts;
  }

  /// A bootstrapped service with a few ingested batches on top, so
  /// histories, vote lists, staged upserts, and journal seqs are all
  /// non-trivial.
  static std::unique_ptr<RealTimeService> MakeService(
      const RealTimeService::Options& opts, bool ingest = true) {
    auto service = std::make_unique<RealTimeService>(*fism_, opts);
    SCCF_CHECK(service->BootstrapFromSplit(*split_).ok());
    if (ingest) {
      const int num_items = static_cast<int>(dataset_->num_items());
      for (int step = 0; step < 4; ++step) {
        std::vector<Event> batch;
        for (int u = 0; u < 12; ++u) {
          batch.push_back({u, (u * 13 + step * 5) % num_items, step});
        }
        batch.push_back({7001, (step * 3 + 1) % num_items, step});
        SCCF_CHECK(service
                       ->OnInteractionBatch(
                           std::span<const Event>(batch), false)
                       .ok());
      }
    }
    return service;
  }

  /// User-facing state equality over a sample of users (histories,
  /// neighborhoods, recommendations) — the same bar the engine
  /// equivalence tests use.
  static void ExpectSameState(const RealTimeService& a,
                              const RealTimeService& b) {
    ASSERT_EQ(a.num_users(), b.num_users());
    for (int user : {0, 1, 5, 11, 40, 7001}) {
      auto h_a = a.History(user);
      auto h_b = b.History(user);
      ASSERT_EQ(h_a.ok(), h_b.ok()) << "user " << user;
      if (h_a.ok()) {
        EXPECT_EQ(*h_a, *h_b) << "user " << user;
      }
      auto n_a = a.Neighbors(user);
      auto n_b = b.Neighbors(user);
      ASSERT_TRUE(n_a.ok()) << "user " << user;
      ASSERT_TRUE(n_b.ok()) << "user " << user;
      ASSERT_EQ(n_a->size(), n_b->size()) << "user " << user;
      for (size_t i = 0; i < n_a->size(); ++i) {
        EXPECT_EQ((*n_a)[i].id, (*n_b)[i].id) << "user " << user;
        EXPECT_EQ((*n_a)[i].score, (*n_b)[i].score) << "user " << user;
      }
      auto r_a = a.RecommendUserBased(user, 10);
      auto r_b = b.RecommendUserBased(user, 10);
      ASSERT_TRUE(r_a.ok()) << "user " << user;
      ASSERT_TRUE(r_b.ok()) << "user " << user;
      ASSERT_EQ(r_a->size(), r_b->size()) << "user " << user;
      for (size_t i = 0; i < r_a->size(); ++i) {
        EXPECT_EQ((*r_a)[i].id, (*r_b)[i].id) << "user " << user;
        EXPECT_EQ((*r_a)[i].score, (*r_b)[i].score) << "user " << user;
      }
    }
  }

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
  static models::Fism* fism_;
};

data::Dataset* SnapshotTest::dataset_ = nullptr;
data::LeaveOneOutSplit* SnapshotTest::split_ = nullptr;
models::Fism* SnapshotTest::fism_ = nullptr;

TEST_F(SnapshotTest, EncodeDecodeRoundTrip) {
  auto service = MakeService(BaseOptions());
  auto bytes = EncodeSnapshot(*service);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  SnapshotMeta meta;
  std::vector<std::string_view> shards;
  ASSERT_TRUE(DecodeSnapshot(*bytes, &meta, &shards).ok());
  EXPECT_EQ(meta.num_shards, 3u);
  EXPECT_EQ(meta.dim, 8u);
  EXPECT_EQ(shards.size(), 3u);
}

TEST_F(SnapshotTest, RestoreReproducesFullState) {
  // Staged upserts included: threshold 4 leaves undrained rows in the
  // write buffers, which the snapshot must carry.
  auto opts = BaseOptions();
  opts.compaction_threshold = 4;
  auto source = MakeService(opts);
  auto bytes = EncodeSnapshot(*source);
  ASSERT_TRUE(bytes.ok());

  auto target = MakeService(opts, /*ingest=*/false);
  SnapshotMeta meta;
  std::vector<std::string_view> shards;
  ASSERT_TRUE(DecodeSnapshot(*bytes, &meta, &shards).ok());
  for (size_t s = 0; s < shards.size(); ++s) {
    ASSERT_TRUE(target->RestoreShard(s, shards[s]).ok()) << "shard " << s;
  }
  ExpectSameState(*source, *target);
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(target->ShardJournalSeq(s), source->ShardJournalSeq(s));
  }
}

TEST_F(SnapshotTest, WriteLoadFileRoundTrip) {
  TempDir dir;
  auto source = MakeService(BaseOptions());
  const std::string path = dir.file("snapshot");
  ASSERT_TRUE(WriteSnapshotFile(*source, path).ok());
  auto target = MakeService(BaseOptions(), /*ingest=*/false);
  ASSERT_TRUE(LoadSnapshotFile(path, target.get()).ok());
  ExpectSameState(*source, *target);
}

TEST_F(SnapshotTest, LoadValidatesMetaAgainstService) {
  TempDir dir;
  auto source = MakeService(BaseOptions());
  const std::string path = dir.file("snapshot");
  ASSERT_TRUE(WriteSnapshotFile(*source, path).ok());

  auto wrong_shards = BaseOptions();
  wrong_shards.num_shards = 2;
  auto t1 = MakeService(wrong_shards, false);
  EXPECT_EQ(LoadSnapshotFile(path, t1.get()).code(),
            StatusCode::kInvalidArgument);

  auto wrong_index = BaseOptions();
  wrong_index.index_kind = core::IndexKind::kHnsw;
  auto t2 = MakeService(wrong_index, false);
  EXPECT_EQ(LoadSnapshotFile(path, t2.get()).code(),
            StatusCode::kInvalidArgument);
}

// Version 2 shard payloads carried a vote-list map after the histories.
// A version-2 file must be refused by its header, never parsed as the
// current layout.
TEST_F(SnapshotTest, RefusesVersionTwoSnapshot) {
  auto source = MakeService(BaseOptions());
  auto encoded = EncodeSnapshot(*source);
  ASSERT_TRUE(encoded.ok());
  std::string v2 = *encoded;
  std::string version;
  PutFixed32(&version, 2);
  v2.replace(8, version.size(), version);  // right after the 8-byte magic

  SnapshotMeta meta;
  std::vector<std::string_view> shards;
  const Status decoded = DecodeSnapshot(v2, &meta, &shards);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.message(), "unsupported snapshot version");

  TempDir dir;
  const std::string path = dir.file("snapshot");
  WriteBytes(path, v2);
  auto target = MakeService(BaseOptions(), /*ingest=*/false);
  const Status loaded = LoadSnapshotFile(path, target.get());
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.message(), "unsupported snapshot version");
  EXPECT_TRUE(target->Neighbors(0).ok());  // still serving
}

TEST_F(SnapshotTest, BitFlipAndTruncationSweepFailCleanly) {
 // The sweep runs for both storage modes: the sq8 snapshot carries the
 // quantized index sections (storage byte, codes, scale/offset params)
 // that fp32 blobs never exercise.
 for (auto storage : {quant::Storage::kFp32, quant::Storage::kSq8}) {
  SCOPED_TRACE(quant::StorageName(storage));
  auto opts = BaseOptions();
  opts.storage = storage;
  auto service = MakeService(opts);
  auto encoded = EncodeSnapshot(*service);
  ASSERT_TRUE(encoded.ok());
  const std::string& bytes = *encoded;
  ASSERT_GT(bytes.size(), 64u);

  // Every byte of the header region plus a stride across the body:
  // magic, version, every section's tag/len/crc, and payload bytes all
  // get hit. Every flip must be a clean decode error (all content is
  // CRC-covered; CRC-32 catches any single-byte burst).
  std::vector<size_t> positions;
  for (size_t i = 0; i < 64; ++i) positions.push_back(i);
  const size_t stride = std::max<size_t>(1, bytes.size() / 256);
  for (size_t i = 64; i < bytes.size(); i += stride) positions.push_back(i);
  positions.push_back(bytes.size() - 1);

  SnapshotMeta meta;
  std::vector<std::string_view> shards;
  for (size_t pos : positions) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xff);
    EXPECT_FALSE(DecodeSnapshot(mutated, &meta, &shards).ok())
        << "flip@" << pos;
  }

  // Truncations: the end marker ('E' section) is how a complete file
  // proves itself, so every strict prefix must be rejected.
  for (size_t pos : positions) {
    EXPECT_FALSE(
        DecodeSnapshot(std::string_view(bytes.data(), pos), &meta, &shards)
            .ok())
        << "cut@" << pos;
  }

  // And end-to-end: a corrupted snapshot file fails to load with a
  // clean error, leaving the target service alive and serving.
  TempDir dir;
  const std::string path = dir.file("snapshot");
  std::string mutated = bytes;
  mutated[bytes.size() / 2] =
      static_cast<char>(mutated[bytes.size() / 2] ^ 0xff);
  WriteBytes(path, mutated);
  auto target = MakeService(opts, false);
  EXPECT_FALSE(LoadSnapshotFile(path, target.get()).ok());
  EXPECT_TRUE(target->Neighbors(0).ok());  // still serving
 }
}

TEST_F(SnapshotTest, RestoreRejectsCorruptShardPayloadUnchanged) {
  auto source = MakeService(BaseOptions());
  auto bytes = EncodeSnapshot(*source);
  ASSERT_TRUE(bytes.ok());
  SnapshotMeta meta;
  std::vector<std::string_view> shards;
  ASSERT_TRUE(DecodeSnapshot(*bytes, &meta, &shards).ok());

  auto target = MakeService(BaseOptions());
  auto before = target->History(0);
  ASSERT_TRUE(before.ok());
  // Truncated shard payload: RestoreShard validates everything before
  // committing, so the shard must be untouched.
  const std::string_view payload = shards[target->ShardOf(0)];
  for (const size_t cut : {payload.size() / 3, payload.size() - 1}) {
    EXPECT_FALSE(
        target->RestoreShard(target->ShardOf(0),
                             std::string_view(payload.data(), cut))
            .ok());
    auto after = target->History(0);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before);
  }
}

// ------------------------------------------------------- sq8 storage

/// Extracts the length-prefixed index blob from an ExportShard payload
/// (after the journal seq and the history map).
std::string_view ShardIndexBlob(std::string_view payload) {
  ByteReader r(payload);
  uint64_t seq = 0;
  SCCF_CHECK(r.ReadFixed64(&seq).ok());
  uint64_t count = 0;
  SCCF_CHECK(r.ReadFixed64(&count).ok());
  for (uint64_t e = 0; e < count; ++e) {
    int32_t v = 0;
    SCCF_CHECK(r.ReadI32(&v).ok());
    uint64_t len = 0;
    SCCF_CHECK(r.ReadFixed64(&len).ok());
    for (uint64_t i = 0; i < len; ++i) SCCF_CHECK(r.ReadI32(&v).ok());
  }
  std::string_view blob;
  SCCF_CHECK(r.ReadLengthPrefixed(&blob).ok());
  return blob;
}

TEST_F(SnapshotTest, Sq8SnapshotRecoversBitIdenticalShardBlobs) {
  auto opts = BaseOptions();
  opts.storage = quant::Storage::kSq8;
  auto source = MakeService(opts);
  auto encoded = EncodeSnapshot(*source);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();

  SnapshotMeta meta;
  std::vector<std::string_view> shards;
  ASSERT_TRUE(DecodeSnapshot(*encoded, &meta, &shards).ok());
  EXPECT_EQ(meta.storage, static_cast<uint32_t>(quant::Storage::kSq8));

  auto target = MakeService(opts, /*ingest=*/false);
  for (size_t s = 0; s < shards.size(); ++s) {
    ASSERT_TRUE(target->RestoreShard(s, shards[s]).ok()) << "shard " << s;
  }
  ExpectSameState(*source, *target);

  // The quantized blobs — int8 codes plus per-row scale/offset — survive
  // the snapshot byte-for-byte: a restored shard re-exports the
  // identical index blob because codes are stored verbatim, never
  // re-encoded from decoded floats.
  for (size_t s = 0; s < shards.size(); ++s) {
    std::string src_payload, dst_payload;
    ASSERT_TRUE(source->ExportShard(s, &src_payload).ok());
    ASSERT_TRUE(target->ExportShard(s, &dst_payload).ok());
    EXPECT_EQ(ShardIndexBlob(src_payload), ShardIndexBlob(dst_payload))
        << "shard " << s;
  }
}

TEST_F(SnapshotTest, LoadRejectsStorageModeMismatch) {
  TempDir dir;
  auto sq8_opts = BaseOptions();
  sq8_opts.storage = quant::Storage::kSq8;
  auto source = MakeService(sq8_opts);
  const std::string path = dir.file("snapshot");
  ASSERT_TRUE(WriteSnapshotFile(*source, path).ok());

  // An fp32 service must refuse an sq8 snapshot outright (and stay
  // alive) rather than feed quantized blobs into float row storage.
  auto target = MakeService(BaseOptions(), /*ingest=*/false);
  const Status st = LoadSnapshotFile(path, target.get());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("storage"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(target->Neighbors(0).ok());  // still serving
}

// ------------------------------------ nn checkpoint hardening (pins)

std::string ValidCheckpointBytes() {
  // magic | version | count=1 | name_len=1 'a' | rank=2 | 2x2 | 4 floats
  std::string b;
  b.append("SCCFCKPT", 8);
  PutFixed32(&b, 1);
  PutFixed32(&b, 1);
  PutFixed32(&b, 1);
  b += 'a';
  PutFixed32(&b, 2);
  PutFixed64(&b, 2);
  PutFixed64(&b, 2);
  for (float f : {1.0f, 2.0f, 3.0f, 4.0f}) PutF32(&b, f);
  return b;
}

TEST(CheckpointFaultTest, HandCraftedCheckpointLoads) {
  TempDir dir;
  const std::string path = dir.file("ckpt");
  WriteBytes(path, ValidCheckpointBytes());
  nn::Parameter p("a", Tensor::Zeros({2, 2}));
  ASSERT_TRUE(nn::LoadParameters(path, {&p}).ok());
  EXPECT_EQ(p.value.data()[0], 1.0f);
  EXPECT_EQ(p.value.data()[3], 4.0f);
}

TEST(CheckpointFaultTest, FaultMatrix) {
  TempDir dir;
  const std::string path = dir.file("ckpt");
  const std::string valid = ValidCheckpointBytes();
  nn::Parameter p("a", Tensor::Zeros({2, 2}));

  struct Case {
    const char* name;
    std::string bytes;
    StatusCode code;
  };
  std::vector<Case> cases;

  {  // bad magic
    std::string b = valid;
    b[0] = 'X';
    cases.push_back({"bad magic", b, StatusCode::kInvalidArgument});
  }
  {  // unsupported version
    std::string b = valid;
    b[8] = 2;
    cases.push_back({"version", b, StatusCode::kInvalidArgument});
  }
  {  // name_len beyond the 4096 cap
    std::string b = valid.substr(0, 16);
    PutFixed32(&b, 5000);
    b += valid.substr(20);
    cases.push_back({"name_len cap", b, StatusCode::kIoError});
  }
  {  // rank beyond the cap of 2
    std::string b = valid.substr(0, 21);
    PutFixed32(&b, 3);
    b += valid.substr(25);
    cases.push_back({"rank cap", b, StatusCode::kIoError});
  }
  {  // dims whose product wraps size_t: 2^40 x 2^40 "fits" mod 2^64
    std::string b = valid.substr(0, 25);
    PutFixed64(&b, uint64_t{1} << 40);
    PutFixed64(&b, uint64_t{1} << 40);
    cases.push_back({"dim overflow", b, StatusCode::kIoError});
  }
  {  // truncated float payload
    cases.push_back({"truncated payload", valid.substr(0, valid.size() - 6),
                     StatusCode::kIoError});
  }
  {  // the same parameter twice
    std::string b = valid;
    b += valid.substr(16);                    // second copy of record 'a'
    std::string fixed = b.substr(0, 12);
    PutFixed32(&fixed, 2);                    // count = 2
    fixed += b.substr(16);
    cases.push_back({"duplicate record", fixed,
                     StatusCode::kInvalidArgument});
  }

  for (const Case& c : cases) {
    WriteBytes(path, c.bytes);
    // Seed the target with sentinels; a rejected checkpoint must leave
    // them bit-identical (the all-or-nothing staging pin).
    for (size_t i = 0; i < 4; ++i) p.value.data()[i] = -9.0f;
    const Status s = nn::LoadParameters(path, {&p});
    EXPECT_EQ(s.code(), c.code) << c.name << ": " << s.ToString();
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(p.value.data()[i], -9.0f) << c.name << " mutated target";
    }
  }
}

TEST(CheckpointFaultTest, FailedMultiParamLoadLeavesAllTargetsUntouched) {
  // Two-parameter checkpoint where the SECOND record mismatches: before
  // the staging fix, the first parameter was already overwritten by the
  // time the error surfaced.
  TempDir dir;
  const std::string path = dir.file("ckpt");
  Rng rng(11);
  nn::Parameter a("a", Tensor::TruncatedNormal({2, 2}, 0.5f, rng));
  nn::Parameter b("b", Tensor::TruncatedNormal({1, 3}, 0.5f, rng));
  ASSERT_TRUE(nn::SaveParameters(path, {&a, &b}).ok());

  nn::Parameter a2("a", Tensor::Full({2, 2}, 7.0f));
  nn::Parameter b2("b", Tensor::Full({1, 4}, 7.0f));  // shape mismatch
  EXPECT_EQ(nn::LoadParameters(path, {&a2, &b2}).code(),
            StatusCode::kInvalidArgument);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a2.value.data()[i], 7.0f) << "a2 partially committed";
  }
}

TEST(CheckpointFaultTest, CountMismatchRejectedWithoutCommit) {
  // File carries one parameter, target expects two: all-or-nothing.
  TempDir dir;
  const std::string path = dir.file("ckpt");
  WriteBytes(path, ValidCheckpointBytes());
  nn::Parameter a("a", Tensor::Full({2, 2}, 7.0f));
  nn::Parameter b("b", Tensor::Full({1, 3}, 7.0f));
  EXPECT_EQ(nn::LoadParameters(path, {&a, &b}).code(),
            StatusCode::kInvalidArgument);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(a.value.data()[i], 7.0f);
}

TEST(CheckpointFaultTest, AtomicSaveFailureKeepsOldCheckpoint) {
  TempDir dir;
  const std::string path = dir.file("ckpt");
  Rng rng(13);
  nn::Parameter a("a", Tensor::TruncatedNormal({2, 2}, 0.5f, rng));
  ASSERT_TRUE(nn::SaveParameters(path, {&a}).ok());
  EXPECT_FALSE(PathExists(path + ".tmp"));  // clean commit, no droppings

  // Sabotage the temp path: the new save must fail cleanly and the old
  // checkpoint must remain loadable, bit-identical.
  ASSERT_TRUE(EnsureDir(path + ".tmp").ok());
  nn::Parameter changed("a", Tensor::Full({2, 2}, 5.0f));
  EXPECT_EQ(nn::SaveParameters(path, {&changed}).code(),
            StatusCode::kIoError);
  nn::Parameter restored("a", Tensor::Zeros({2, 2}));
  ASSERT_TRUE(nn::LoadParameters(path, {&restored}).ok());
  EXPECT_TRUE(restored.value.AllClose(a.value, 0.0f));
  ::rmdir((path + ".tmp").c_str());
}

}  // namespace
}  // namespace sccf::persist
