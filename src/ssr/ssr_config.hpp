// SSR configuration-word map (scfgwi selectors), static lane parameters, and
// the one scfgwi decoder every consumer reads.
//
// Mirrors the SSSR programming model: per-lane config registers written by
// the integer core via `scfgwi value, lane, word`; writing a LAUNCH word arms
// the lane and starts streaming. Lanes 0 and 1 are indirection-capable,
// lane 2 is affine-only (paper §2.3).
//
// The simulator (SsrLane), the abstract interpreter, the SSR-state
// dataflow and disasm all decode through scfg_select and apply_scfg_word;
// each turns a bad status into its own check or diagnostic.
#pragma once

#include "common/types.hpp"
#include "isa/reg.hpp"

namespace saris {

inline constexpr u32 kSsrMaxDims = 4;
inline constexpr u32 kSsrFifoDepth = 4;      ///< data FIFO depth per lane
inline constexpr u32 kSsrIdxQueueDepth = 8;  ///< decoded pending indices
/// Lanes 0..kNumIndirectSsrLanes-1 are indirection-capable (SSSR); the
/// remaining lane(s) are affine-only.
inline constexpr u32 kNumIndirectSsrLanes = 2;

/// scfgwi `word` selectors.
enum SsrCfgWord : u32 {
  kSsrBound0 = 0,  ///< element count, innermost dim
  kSsrBound1 = 1,
  kSsrBound2 = 2,
  kSsrBound3 = 3,
  kSsrStride0 = 4,  ///< byte stride, innermost dim
  kSsrStride1 = 5,
  kSsrStride2 = 6,
  kSsrStride3 = 7,
  kSsrIdxBase = 8,   ///< TCDM byte address of the index array
  kSsrIdxCount = 9,  ///< number of indices consumed per indirect launch
  kSsrIdxSize = 10,  ///< bytes per index: 1, 2 (default) or 4
  // Writing one of these arms the stream; the written value is the base
  // address (affine) or the indirection base (indirect).
  kSsrLaunchRead = 16,
  kSsrLaunchWrite = 17,
  kSsrLaunchIndirect = 18,
};

enum class SsrStreamKind { kNone, kAffineRead, kAffineWrite, kIndirectRead };

/// Per-lane configuration state (written via scfgwi, read by the generators).
struct SsrLaneConfig {
  u32 bounds[kSsrMaxDims] = {1, 1, 1, 1};
  i32 strides[kSsrMaxDims] = {0, 0, 0, 0};
  Addr idx_base = 0;
  u32 idx_count = 0;
  u32 idx_size = 2;

  u64 affine_elems() const {
    u64 n = 1;
    for (u32 b : bounds) n *= b;
    return n;
  }
};

// ---- the scfgwi decoder ----

/// An scfgwi immediate split into lane and config word (imm = lane * 256 +
/// word).
struct ScfgSel {
  u32 lane = 0;
  u32 word = 0;
  constexpr bool lane_ok() const { return lane < kNumSsrLanes; }
};

constexpr ScfgSel scfg_select(i32 imm) {
  const u32 v = static_cast<u32>(imm);
  return ScfgSel{v / 256, v % 256};
}

constexpr i32 scfg_imm(u32 lane, u32 word) {
  return static_cast<i32>(lane * 256 + word);
}

/// The stream a launch word starts; kNone for plain config words.
constexpr SsrStreamKind scfg_launch_kind(u32 word) {
  switch (word) {
    case kSsrLaunchRead: return SsrStreamKind::kAffineRead;
    case kSsrLaunchWrite: return SsrStreamKind::kAffineWrite;
    case kSsrLaunchIndirect: return SsrStreamKind::kIndirectRead;
    default: return SsrStreamKind::kNone;
  }
}

enum class ScfgStatus : u8 {
  kOk,
  kBadWord,         ///< no such config word
  kBadIdxSize,      ///< index size other than 1, 2 or 4 bytes
  kAffineOnlyLane,  ///< indirect launch on a lane without indirection
  kNoIndices,       ///< indirect launch with idx_count == 0
};

constexpr const char* scfg_status_text(ScfgStatus s) {
  switch (s) {
    case ScfgStatus::kOk: return "ok";
    case ScfgStatus::kBadWord: return "bad SSR config word";
    case ScfgStatus::kBadIdxSize: return "bad SSR index size";
    case ScfgStatus::kAffineOnlyLane: return "lane is not indirection-capable";
    case ScfgStatus::kNoIndices: return "indirect launch with idx_count == 0";
  }
  return "?";
}

/// What one config write does: on kOk, `launch` is the stream to start with
/// the written value as its base (kNone for a plain config word).
struct ScfgEffect {
  ScfgStatus status = ScfgStatus::kOk;
  SsrStreamKind launch = SsrStreamKind::kNone;
};

/// Apply `value` to config word `sel.word` of lane `sel.lane` (lane_ok()),
/// whose config is `cfg`. Config words update `cfg`; launch words leave it
/// alone and report the stream to start.
constexpr ScfgEffect apply_scfg_word(SsrLaneConfig& cfg, ScfgSel sel,
                                     u32 value) {
  const u32 w = sel.word;
  if (w >= kSsrBound0 && w <= kSsrBound3) {
    cfg.bounds[w - kSsrBound0] = value;
  } else if (w >= kSsrStride0 && w <= kSsrStride3) {
    cfg.strides[w - kSsrStride0] = static_cast<i32>(value);
  } else if (w == kSsrIdxBase) {
    cfg.idx_base = value;
  } else if (w == kSsrIdxCount) {
    cfg.idx_count = value;
  } else if (w == kSsrIdxSize) {
    if (value != 1 && value != 2 && value != 4) {
      return {ScfgStatus::kBadIdxSize};
    }
    cfg.idx_size = value;
  } else {
    const SsrStreamKind kind = scfg_launch_kind(w);
    if (kind == SsrStreamKind::kNone) return {ScfgStatus::kBadWord};
    if (kind == SsrStreamKind::kIndirectRead) {
      if (sel.lane >= kNumIndirectSsrLanes) {
        return {ScfgStatus::kAffineOnlyLane};
      }
      if (cfg.idx_count == 0) return {ScfgStatus::kNoIndices};
    }
    return {ScfgStatus::kOk, kind};
  }
  return {};
}

}  // namespace saris
