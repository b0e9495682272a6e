#include "persist/snapshot.h"

#include <cstring>

#include "persist/fs.h"
#include "util/coding.h"

namespace sccf::persist {

namespace {

constexpr char kMagic[8] = {'S', 'C', 'C', 'F', 'S', 'N', 'A', 'P'};
// Version 2 added the storage mode (fp32 / sq8) to the meta section;
// version 3 dropped the per-user vote lists from each shard payload.
constexpr uint32_t kVersion = 3;

constexpr uint8_t kSectionMeta = 'M';
constexpr uint8_t kSectionShard = 'S';
constexpr uint8_t kSectionEnd = 'E';

void AppendSection(std::string* out, uint8_t tag, std::string_view payload) {
  PutU8(out, tag);
  PutFixed64(out, payload.size());
  PutFixed32(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

/// Reads one section; the payload view borrows the reader's buffer.
Status ReadSection(ByteReader* reader, uint8_t* tag,
                   std::string_view* payload) {
  SCCF_RETURN_NOT_OK(reader->ReadU8(tag));
  uint64_t len = 0;
  uint32_t crc = 0;
  SCCF_RETURN_NOT_OK(reader->ReadFixed64(&len));
  SCCF_RETURN_NOT_OK(reader->ReadFixed32(&crc));
  if (len > reader->remaining()) {
    return Status::IoError("snapshot section truncated");
  }
  SCCF_RETURN_NOT_OK(reader->ReadView(static_cast<size_t>(len), payload));
  if (Crc32(*payload) != crc) {
    return Status::IoError("snapshot section checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::string> EncodeSnapshot(const core::RealTimeService& service) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutFixed32(&out, kVersion);

  std::string meta;
  PutFixed64(&meta, service.num_shards());
  PutFixed64(&meta, service.embedding_dim());
  PutFixed32(&meta, static_cast<uint32_t>(service.options().index_kind));
  PutFixed32(&meta, static_cast<uint32_t>(service.options().metric));
  PutFixed32(&meta, static_cast<uint32_t>(service.options().storage));
  AppendSection(&out, kSectionMeta, meta);

  std::string payload;
  for (size_t s = 0; s < service.num_shards(); ++s) {
    payload.clear();
    PutFixed64(&payload, s);
    SCCF_RETURN_NOT_OK(service.ExportShard(s, &payload));
    AppendSection(&out, kSectionShard, payload);
  }
  AppendSection(&out, kSectionEnd, {});
  return out;
}

Status DecodeSnapshot(std::string_view bytes, SnapshotMeta* meta,
                      std::vector<std::string_view>* shards) {
  ByteReader reader(bytes);
  std::string_view magic;
  if (!reader.ReadView(sizeof(kMagic), &magic).ok() ||
      std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an SCCF snapshot");
  }
  uint32_t version = 0;
  if (!reader.ReadFixed32(&version).ok() || version != kVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }

  uint8_t tag = 0;
  std::string_view payload;
  SCCF_RETURN_NOT_OK(ReadSection(&reader, &tag, &payload));
  if (tag != kSectionMeta) {
    return Status::IoError("snapshot must start with a meta section");
  }
  {
    ByteReader m(payload);
    SCCF_RETURN_NOT_OK(m.ReadFixed64(&meta->num_shards));
    SCCF_RETURN_NOT_OK(m.ReadFixed64(&meta->dim));
    SCCF_RETURN_NOT_OK(m.ReadFixed32(&meta->index_kind));
    SCCF_RETURN_NOT_OK(m.ReadFixed32(&meta->metric));
    SCCF_RETURN_NOT_OK(m.ReadFixed32(&meta->storage));
    if (!m.exhausted()) {
      return Status::IoError("trailing bytes in snapshot meta");
    }
  }
  if (meta->num_shards == 0 || meta->num_shards > bytes.size()) {
    return Status::IoError("snapshot shard count out of range");
  }

  shards->assign(static_cast<size_t>(meta->num_shards), {});
  std::vector<bool> seen(shards->size(), false);
  for (;;) {
    SCCF_RETURN_NOT_OK(ReadSection(&reader, &tag, &payload));
    if (tag == kSectionEnd) break;
    if (tag != kSectionShard) {
      return Status::IoError("unknown snapshot section tag");
    }
    ByteReader p(payload);
    uint64_t shard_idx = 0;
    SCCF_RETURN_NOT_OK(p.ReadFixed64(&shard_idx));
    if (shard_idx >= shards->size()) {
      return Status::IoError("snapshot shard index out of range");
    }
    if (seen[shard_idx]) {
      return Status::IoError("duplicate snapshot shard section");
    }
    seen[shard_idx] = true;
    (*shards)[shard_idx] = payload.substr(8);
  }
  for (size_t s = 0; s < seen.size(); ++s) {
    if (!seen[s]) {
      return Status::IoError("snapshot missing shard " + std::to_string(s));
    }
  }
  if (!reader.exhausted()) {
    return Status::IoError("trailing bytes after snapshot end marker");
  }
  return Status::OK();
}

Status WriteSnapshotFile(const core::RealTimeService& service,
                         const std::string& path) {
  SCCF_ASSIGN_OR_RETURN(std::string bytes, EncodeSnapshot(service));
  return WriteFileAtomic(path, bytes, /*sync=*/true);
}

Status LoadSnapshotFile(const std::string& path,
                        core::RealTimeService* service) {
  SCCF_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  SnapshotMeta meta;
  std::vector<std::string_view> shards;
  SCCF_RETURN_NOT_OK(DecodeSnapshot(bytes, &meta, &shards));
  if (meta.num_shards != service->num_shards()) {
    return Status::InvalidArgument(
        "snapshot has " + std::to_string(meta.num_shards) +
        " shards, service has " + std::to_string(service->num_shards()));
  }
  if (meta.dim != service->embedding_dim()) {
    return Status::InvalidArgument("snapshot embedding dim mismatch");
  }
  if (meta.index_kind !=
          static_cast<uint32_t>(service->options().index_kind) ||
      meta.metric != static_cast<uint32_t>(service->options().metric)) {
    return Status::InvalidArgument("snapshot index kind/metric mismatch");
  }
  if (meta.storage != static_cast<uint32_t>(service->options().storage)) {
    return Status::InvalidArgument("snapshot storage mode mismatch");
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    SCCF_RETURN_NOT_OK(service->RestoreShard(s, shards[s]));
  }
  return Status::OK();
}

}  // namespace sccf::persist
