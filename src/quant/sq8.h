#ifndef SCCF_QUANT_SQ8_H_
#define SCCF_QUANT_SQ8_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// SQ8 scalar quantization: each embedding row is stored as dim int8
/// codes plus a per-row affine map value = scale * code + offset.
///
/// Encoding is min-max symmetric around the row midpoint:
///   lo = min(row), hi = max(row)
///   scale  = (hi - lo) / 254        (codes span [-127, 127])
///   offset = (hi + lo) / 2
///   code_i = round((v_i - offset) / scale), clamped to [-127, 127]
/// A constant row (hi == lo, including all-zero rows) encodes as
/// scale = 0, offset = lo, codes all 0 — and decodes exactly.
///
/// Properties the rest of the system relies on:
///  - Deterministic: the same fp32 row always yields the same codes and
///    params, so journal replay and snapshot recovery re-encode staged
///    rows bit-identically.
///  - Self-contained rows: codes + (scale, offset) serialize as-is, so
///    snapshot roundtrips are trivially bit-exact.
///  - Memory: dim + 8 bytes per row vs 4 * dim fp32 (3.76x at dim 128).
///
/// Scoring against codes never materializes decoded floats; see the
/// DotI8/CosineI8/DotBatchI8 kernels in simd/kernels.h. Index backends hold
/// rows through quant::RowStore (row_store.h), which applies this codec.
namespace sccf::quant {

/// Which representation an index backend holds rows in. Lives here (not
/// in index/) so core/ and server/ can name it without pulling in the
/// backend headers.
enum class Storage : int { kFp32 = 0, kSq8 = 1 };

/// "fp32" or "sq8".
const char* StorageName(Storage s);

/// Parses "fp32" / "sq8" (case-insensitive). Returns false on anything
/// else.
bool ParseStorage(const std::string& s, Storage* out);

struct Sq8Params {
  float scale = 0.0f;
  float offset = 0.0f;
};

/// Encodes n floats into codes[0..n); returns the row's affine params.
Sq8Params Sq8Encode(const float* in, size_t n, int8_t* codes);

/// Decodes n codes back to floats: out[i] = scale * codes[i] + offset.
void Sq8Decode(const int8_t* codes, size_t n, Sq8Params params, float* out);

}  // namespace sccf::quant

#endif  // SCCF_QUANT_SQ8_H_
