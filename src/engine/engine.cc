#include "engine/engine.h"

#include "common/coding.h"
#include "engine/hybrid.h"
#include "engine/scan_util.h"
#include "engine/tuple_first.h"
#include "engine/version_first.h"

namespace decibel {

Result<std::unique_ptr<ScanCursor>> MakeDiffScanCursor(StorageEngine* engine,
                                                       const ScanSpec& spec) {
  const Schema& schema = engine->schema();
  DECIBEL_RETURN_NOT_OK(ValidateScanColumns(spec, schema));
  const PreparedPredicate prepared(spec.predicate, schema);
  const uint32_t row_bytes = ProjectedRowBytes(schema, spec.projection);
  auto cursor =
      std::make_unique<BufferedCursor>(&schema, engine->scan_counters());
  ScanStats* stats = cursor->mutable_stats();
  DECIBEL_RETURN_NOT_OK(DiffHeads(
      engine, spec.branch, spec.diff_base, spec.diff_mode,
      [&](const RecordRef& rec) {
        if (spec.limit != 0 && cursor->buffered() >= spec.limit) return;
        ++stats->rows_scanned;
        stats->bytes_scanned += row_bytes;
        if (!prepared.Matches(rec.data().data())) return;
        cursor->AddRow(rec.data(), spec.projection);
      },
      /*neg=*/nullptr, stats));
  return std::unique_ptr<ScanCursor>(std::move(cursor));
}

void StorageEngine::CopyScanCounters(EngineStats* stats) const {
  stats->rows_scanned = scan_counters_.rows();
  stats->bytes_scanned = scan_counters_.bytes();
  stats->bytes_read = scan_counters_.bytes_read();
  stats->segments_skipped = scan_counters_.segments_skipped();
  stats->pages_skipped = scan_counters_.pages_skipped();
}

void PutEngineMetaHeader(std::string* meta) {
  PutFixed32(meta, kEngineMetaMagic);
  PutVarint32(meta, kEngineMetaVersion);
}

Status CheckEngineMetaHeader(Slice* input, const char* engine_name) {
  const std::string name(engine_name);
  if (input->size() < sizeof(uint32_t) ||
      DecodeFixed32(input->data()) != kEngineMetaMagic) {
    return Status::InvalidArgument(
        name + ": engine.meta has no format header — written by an older "
               "incompatible release; this version cannot open it");
  }
  input->RemovePrefix(sizeof(uint32_t));
  uint32_t version;
  if (!GetVarint32(input, &version)) {
    return Status::Corruption(name + ": truncated engine.meta header");
  }
  if (version != kEngineMetaVersion) {
    return Status::InvalidArgument(
        name + ": unsupported engine.meta format version " +
        std::to_string(version) + " (expected " +
        std::to_string(kEngineMetaVersion) + ")");
  }
  return Status::OK();
}

const char* EngineTypeName(EngineType type) {
  switch (type) {
    case EngineType::kTupleFirst:
      return "tuple-first";
    case EngineType::kVersionFirst:
      return "version-first";
    case EngineType::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Result<std::unique_ptr<StorageEngine>> MakeEngine(
    EngineType type, const Schema& schema, const EngineOptions& options) {
  switch (type) {
    case EngineType::kTupleFirst: {
      DECIBEL_ASSIGN_OR_RETURN(auto engine,
                               TupleFirstEngine::Make(schema, options));
      return std::unique_ptr<StorageEngine>(std::move(engine));
    }
    case EngineType::kVersionFirst: {
      DECIBEL_ASSIGN_OR_RETURN(auto engine,
                               VersionFirstEngine::Make(schema, options));
      return std::unique_ptr<StorageEngine>(std::move(engine));
    }
    case EngineType::kHybrid: {
      DECIBEL_ASSIGN_OR_RETURN(auto engine,
                               HybridEngine::Make(schema, options));
      return std::unique_ptr<StorageEngine>(std::move(engine));
    }
  }
  return Status::InvalidArgument("unknown engine type");
}

}  // namespace decibel
