// Package wire provides the saturating narrowing casts every wire
// codec in the tree must use. A plain uint16(n) silently wraps when n
// outgrows the field — the bug class behind the PR 4 flow-count wrap —
// so codecs clamp instead: the encoded value pins at the field maximum
// and an overflow counter records that information was lost. Saturation
// is observable (wire.Saturations, plus any per-codec counter passed at
// the call site) rather than silent corruption.
//
// The kollapslint wiresafe analyzer enforces the contract: inside
// //kollaps:wirecodec packages, narrowing conversions that reach a wire
// position must go through these helpers.
package wire

import "repro/internal/metrics"

// Saturations counts every clamped narrowing across the process, so a
// run that lost information on the wire shows up even when the codec
// didn't thread its own counter. No metrics registry exports it: read
// it in-process (tests do, with Value).
var Saturations metrics.Counter

// count records one saturation on the global and optional per-site
// counter.
func count(sat *metrics.Counter) {
	Saturations.Inc()
	if sat != nil {
		sat.Inc()
	}
}

// U16 narrows v to uint16, clamping to [0, 65535]. A clamp bumps the
// global Saturations counter and sat (when non-nil).
//
//kollaps:saturates
func U16(v int, sat *metrics.Counter) uint16 {
	if v < 0 {
		count(sat)
		return 0
	}
	if v > 0xFFFF {
		count(sat)
		return 0xFFFF
	}
	return uint16(v)
}

// U8 narrows v to uint8, clamping to [0, 255]. A clamp bumps the global
// Saturations counter and sat (when non-nil).
//
//kollaps:saturates
func U8(v int, sat *metrics.Counter) uint8 {
	if v < 0 {
		count(sat)
		return 0
	}
	if v > 0xFF {
		count(sat)
		return 0xFF
	}
	return uint8(v)
}

// U32 narrows v to uint32, clamping to [0, 4294967295]. A clamp bumps
// the global Saturations counter and sat (when non-nil).
//
//kollaps:saturates
func U32(v uint64, sat *metrics.Counter) uint32 {
	if v > 0xFFFFFFFF {
		count(sat)
		return 0xFFFFFFFF
	}
	return uint32(v)
}

// U32FromInt64 narrows a signed 64-bit value to uint32, clamping
// negatives to 0. A clamp bumps the global Saturations counter and sat
// (when non-nil).
//
//kollaps:saturates
func U32FromInt64(v int64, sat *metrics.Counter) uint32 {
	if v < 0 {
		count(sat)
		return 0
	}
	return U32(uint64(v), sat)
}
