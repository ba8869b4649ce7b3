#include "oran/e2_codec.hpp"

#include <cmath>

#include "util/persist/persist.hpp"

namespace orev::oran {

namespace {

template <typename T>
T load_le(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void store_le(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace

const char* kpm_decode_status_name(KpmDecodeStatus s) {
  switch (s) {
    case KpmDecodeStatus::kOk: return "ok";
    case KpmDecodeStatus::kTooShort: return "too_short";
    case KpmDecodeStatus::kBadMagic: return "bad_magic";
    case KpmDecodeStatus::kBadVersion: return "bad_version";
    case KpmDecodeStatus::kBadKind: return "bad_kind";
    case KpmDecodeStatus::kTruncated: return "truncated";
    case KpmDecodeStatus::kBadCrc: return "bad_crc";
    case KpmDecodeStatus::kNonFinite: return "non_finite";
  }
  return "unknown";
}

KpmDecodeStatus decode_kpm_frame(std::string_view bytes, KpmFrameView& out) {
  // Header first: the feature count lives there, and the frame's real
  // size must corroborate it before any feature byte is trusted.
  if (bytes.size() < kpm_frame_size(0)) return KpmDecodeStatus::kTooShort;
  const char* p = bytes.data();
  if (load_le<std::uint32_t>(p) != kKpmFrameMagic)
    return KpmDecodeStatus::kBadMagic;
  if (load_le<std::uint8_t>(p + 4) != kKpmFrameVersion)
    return KpmDecodeStatus::kBadVersion;
  const std::uint8_t kind = load_le<std::uint8_t>(p + 5);
  if (kind > 1) return KpmDecodeStatus::kBadKind;
  const std::uint16_t features = load_le<std::uint16_t>(p + 6);
  if (bytes.size() != kpm_frame_size(features))
    return KpmDecodeStatus::kTruncated;
  const std::size_t body = bytes.size() - kKpmFrameTrailerBytes;
  const std::uint32_t want = load_le<std::uint32_t>(p + body);
  if (persist::crc32c(p, body) != want) return KpmDecodeStatus::kBadCrc;
  for (std::size_t i = 0; i < features; ++i) {
    if (!std::isfinite(
            load_le<float>(p + kKpmFrameHeaderBytes + i * sizeof(float))))
      return KpmDecodeStatus::kNonFinite;
  }
  out.cell_id = load_le<std::uint32_t>(p + 8);
  out.tti = load_le<std::uint64_t>(p + 12);
  out.kind = kind == 0 ? IndicationKind::kSpectrogram : IndicationKind::kKpm;
  out.feature_count = features;
  out.feature_bytes = p + kKpmFrameHeaderBytes;
  return KpmDecodeStatus::kOk;
}

std::string_view KpmFrameArena::encode(std::uint32_t cell_id,
                                       std::uint64_t tti, IndicationKind kind,
                                       std::span<const float> features) {
  const std::size_t n = kpm_frame_size(features.size());
  buf_.resize(n);  // capacity is sticky: steady-state encodes don't allocate
  char* p = buf_.data();
  store_le<std::uint32_t>(p, kKpmFrameMagic);
  store_le<std::uint8_t>(p + 4, kKpmFrameVersion);
  store_le<std::uint8_t>(
      p + 5, kind == IndicationKind::kSpectrogram ? 0 : 1);
  store_le<std::uint16_t>(p + 6, static_cast<std::uint16_t>(features.size()));
  store_le<std::uint32_t>(p + 8, cell_id);
  store_le<std::uint64_t>(p + 12, tti);
  std::memcpy(p + kKpmFrameHeaderBytes, features.data(),
              features.size() * sizeof(float));
  const std::size_t body = n - kKpmFrameTrailerBytes;
  store_le<std::uint32_t>(p + body, persist::crc32c(p, body));
  return std::string_view(buf_.data(), n);
}

}  // namespace orev::oran
