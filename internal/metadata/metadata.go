// Package metadata is the wire encoding of Kollaps' decentralized
// metadata dissemination (§4.2): it packs per-flow bandwidth usage and
// path link identifiers into single UDP datagrams. The dissemination
// strategies that carry these messages between Emulation Managers live in
// internal/dissem.
//
// The wire format follows the paper byte for byte: (i) number of flows,
// 2 bytes; (ii) used bandwidth per flow, 4 bytes; (iii) number of links
// per flow; (iv) the link identifiers — 1 byte each for topologies with
// ≤ 256 links, 2 bytes otherwise.
//
// The package is a wire codec: integer narrowing into wire fields goes
// through the saturating helpers of internal/wire, enforced by the
// kollapslint wiresafe analyzer.
//
//kollaps:wirecodec
package metadata

import (
	"encoding/binary"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// FlowRecord reports one active flow: its current usage and the physical
// link ids its collapsed path traverses. Flows are identified by their
// link lists — the only state peers need to run the sharing model.
//
//kollaps:wire
type FlowRecord struct {
	// BPS is the observed bandwidth usage in bits per second.
	BPS uint32
	// Count is the number of flows the record stands for: 1 for a flow
	// as reported, more for a strategy's record summing the flows of one
	// path. The paper's wire format does not carry it: AppendEncode
	// leaves it out and DecodeInto sets it to 1.
	Count uint16
	// Links are the topology link ids on the flow's path.
	Links []uint16
}

// Message is one Emulation Manager's report: all active flows whose source
// containers it hosts.
//
//kollaps:wire
type Message struct {
	// Host identifies the sending Emulation Manager.
	Host uint16
	// Flows are the sender's active flows.
	Flows []FlowRecord
}

// Wide reports whether the topology needs 2-byte link identifiers
// (more than 256 distinct links).
func Wide(numLinks int) bool { return numLinks > 256 }

// AppendEncode serializes the message, appending to buf so a per-period
// sender reuses one buffer. wide selects 2-byte link ids.
//
// Counts saturate instead of wrapping: a message with more than 65535
// flows encodes only the first 65535 (and more than 255 links per flow
// only the first 255), bumping wire.Saturations — the pre-fix behavior
// wrapped the count field and desynchronized every decoder downstream.
func AppendEncode(buf []byte, m *Message, wide bool) []byte {
	flows := m.Flows
	if n := int(wire.U16(len(flows), nil)); n < len(flows) {
		flows = flows[:n]
	}
	buf = binary.BigEndian.AppendUint16(buf, m.Host)
	buf = binary.BigEndian.AppendUint16(buf, wire.U16(len(flows), nil))
	for _, f := range flows {
		buf = binary.BigEndian.AppendUint32(buf, f.BPS)
		buf = AppendLinks(buf, f.Links, wide, nil)
	}
	return buf
}

// DecodeInto parses a message encoded with the same width into storage
// the caller owns: m.Flows is reused
// (its capacity kept) and every flow's Links is a sub-slice of the links
// arena, which is appended to and returned — a per-datagram receiver
// passes last time's arena[:0] and allocates nothing once warm. Every
// flow's Count is 1. On error m holds a partial message the caller must
// discard.
func DecodeInto(m *Message, links []uint16, b []byte, wide bool) ([]uint16, error) {
	if len(b) < 4 {
		return links, fmt.Errorf("metadata: short message (%d bytes)", len(b))
	}
	m.Host = binary.BigEndian.Uint16(b)
	m.Flows = m.Flows[:0]
	n := int(binary.BigEndian.Uint16(b[2:]))
	off := 4
	for i := 0; i < n; i++ {
		if off+5 > len(b) {
			return links, fmt.Errorf("metadata: truncated flow %d", i)
		}
		bps := binary.BigEndian.Uint32(b[off:])
		off += 4
		if off+LinksSize(int(b[off]), wide) > len(b) {
			return links, fmt.Errorf("metadata: truncated links of flow %d", i)
		}
		start := len(links)
		links, off = ReadLinks(links, b, off, wide)
		m.Flows = append(m.Flows, FlowRecord{BPS: bps, Count: 1, Links: links[start:len(links):len(links)]})
	}
	if off != len(b) {
		return links, fmt.Errorf("metadata: %d trailing bytes", len(b)-off)
	}
	return links, nil
}

// A link list on the wire — the paper's per-flow (iii) and (iv), and
// every strategy record's path — is a 1-byte count, then the ids: 1 byte
// each, or 2 (big-endian) when wide.

// LinksSize is the wire size of a list of n link ids, its count byte
// included; n is at most 255, as encoded.
func LinksSize(n int, wide bool) int {
	if wide {
		return 1 + 2*n
	}
	return 1 + n
}

// AppendLinks encodes a link list. Paths longer than 255 links saturate:
// the first 255 ids are encoded, and the clamp is counted in
// wire.Saturations and sat (when non-nil) — a wrapped count byte would
// desynchronize the decoder from the first overlong path onward.
func AppendLinks(buf []byte, links []uint16, wide bool, sat *metrics.Counter) []byte {
	if n := int(wire.U8(len(links), sat)); n < len(links) {
		links = links[:n]
	}
	buf = append(buf, wire.U8(len(links), nil))
	for _, l := range links {
		if wide {
			buf = binary.BigEndian.AppendUint16(buf, l)
		} else {
			// Narrow mode is only selected when all link ids fit a
			// byte; saturation here means the caller mis-sized.
			buf = append(buf, wire.U8(int(l), sat))
		}
	}
	return buf
}

// ReadLinks appends the link list encoded at b[off:] to arena and
// returns the arena and the offset past the list. The caller has checked
// that the list fits b (LinksSize of its count byte).
func ReadLinks(arena []uint16, b []byte, off int, wide bool) ([]uint16, int) {
	n := int(b[off])
	off++
	for j := 0; j < n; j++ {
		if wide {
			arena = append(arena, binary.BigEndian.Uint16(b[off:]))
			off += 2
		} else {
			arena = append(arena, uint16(b[off]))
			off++
		}
	}
	return arena, off
}
