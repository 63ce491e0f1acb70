// Column block codecs for append-optimized storage: RLE, delta, dictionary,
// and an LZ77-style byte codec — written from scratch (the paper's zstd/zlib/
// quicklz stand-ins; see DESIGN.md substitutions).
#ifndef GPHTAP_STORAGE_COMPRESSION_H_
#define GPHTAP_STORAGE_COMPRESSION_H_

#include <cstdint>
#include <vector>

#include "catalog/datum.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "vec/column_batch.h"

namespace gphtap {

/// One compressed column block.
struct CompressedBlock {
  CompressionKind kind = CompressionKind::kNone;
  TypeId type = TypeId::kInt64;
  uint32_t count = 0;            // number of values (incl. nulls)
  std::vector<uint8_t> bytes;    // null bitmap + payload
};

/// Compresses `values` (all of `type`, nulls allowed) with the requested codec.
/// Codecs that cannot represent the data (e.g. delta on strings) silently fall
/// back to kNone; the block records the codec actually used.
Status CompressColumn(CompressionKind kind, TypeId type,
                      const std::vector<Datum>& values, CompressedBlock* out);

/// Decodes `block` straight into `out`'s typed layout: int64 and double
/// blocks fill `ints` / `dbls` and the null mask (left empty when the block
/// has no NULL), string blocks fill boxed `datums`. A truncated or corrupt
/// block is InvalidArgument and leaves `out` cleared.
Status DecompressInto(const CompressedBlock& block, ColumnVector* out);

/// The same decode boxed into one Datum per value (NULLs included).
StatusOr<std::vector<Datum>> DecompressColumn(const CompressedBlock& block);

/// Raw LZ77-style byte compression (greedy hash-chain matcher). Exposed for
/// tests; CompressColumn(kLz) applies it to the raw encoding.
std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& in);
StatusOr<std::vector<uint8_t>> LzDecompress(const std::vector<uint8_t>& in);

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_COMPRESSION_H_
