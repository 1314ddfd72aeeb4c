//===- specialize/LayoutSerde.h - CacheLayout binary serde ------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary serialization for CacheLayout, used by the snapshot
/// subsystem. The layout is the authoritative description of the packed
/// cache bytes, so deserialization is strict: slot types must be valid
/// non-void kinds and the stored offsets must equal the offsets the
/// layout computes for those types — a mismatch means the bytes were
/// written by a different packing rule (or corrupted) and the arena
/// payload cannot be trusted.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SPECIALIZE_LAYOUTSERDE_H
#define DATASPEC_SPECIALIZE_LAYOUTSERDE_H

#include "specialize/CacheLayout.h"
#include "support/ByteStream.h"

#include <string>

namespace dspec {

/// Bump when the encoded shape of CacheLayout (or the packing rule it
/// implies) changes. Version 2 appended a presence flag plus per-slot
/// f32 reuse weights (the hot/cold figures the measured-bytes limiter
/// and --explain report) after the stored total.
constexpr uint32_t kLayoutSerdeVersion = 2;
/// Oldest encoding deserializeLayout accepts. Version-1 layouts decode
/// with every reuse weight unknown (-1), i.e. all slots hot — exactly
/// the pre-weights behavior.
constexpr uint32_t kMinLayoutSerdeVersion = 1;

/// Appends \p Layout to \p Writer (always at kLayoutSerdeVersion).
void serializeLayout(ByteWriter &Writer, const CacheLayout &Layout);

/// Decodes one CacheLayout encoded at \p Version. Returns false with
/// \p Error set on invalid slot types, offset mismatches, or truncation.
bool deserializeLayout(ByteReader &Reader, CacheLayout &Out,
                       std::string &Error,
                       uint32_t Version = kLayoutSerdeVersion);

} // namespace dspec

#endif // DATASPEC_SPECIALIZE_LAYOUTSERDE_H
