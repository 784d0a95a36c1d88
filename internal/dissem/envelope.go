package dissem

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/wire"
)

// Integrity envelope for every control datagram.
//
// The strategies' inner formats were designed for a fabric that never
// corrupts or duplicates a datagram (internal/netem preserves both);
// the chaos plane removes that assumption, so every datagram a node
// sends is sealed in a 13-byte envelope:
//
//	[0xC0|ver][seq:4][len:4][crc:4] inner payload
//
// Byte 0 reuses the tree codec's version-marker convention (the 0xC0
// mask plus a version number). Every node of a deployment seals every
// datagram, so a datagram is either verified or rejected and counted:
// any byte 0 but envVersion — an unsealed frame, an unknown envelope
// version — lands in Stats.BadVersion. seq is the sender's datagram
// counter (per-node, monotonic, starting at 1): receivers use it to
// shed duplicates and stale reordered copies without any per-strategy
// protocol change. len is the inner payload's byte length
// — a cheap truncation check that fails before the checksum is even
// computed. crc is CRC-32C (Castagnoli) over the first 9 header bytes
// and the inner payload, so a bit flip anywhere in the datagram lands
// in Stats.BadChecksum instead of a decoder's silent reject path.
const (
	// envVersion marks byte 0 of an enveloped datagram: the 0xC0
	// version-marker mask plus envelope version 1.
	envVersion byte = 0xC1
	// envHeaderLen is the sealed envelope header size in bytes.
	envHeaderLen = 13
	// envRestartGap bounds how far a sequence number may regress before
	// a receiver treats the sender as restarted rather than the datagram
	// as stale: a reordered datagram is displaced by at most a few sends,
	// while a restarted node (whose counter was not preserved) regresses
	// by its whole previous lifetime. A gray-delayed datagram from more
	// than envRestartGap sends ago is mis-accepted as a restart — and
	// overwritten by the sender's next in-order datagram, at most one
	// period later.
	envRestartGap = 64
)

// castagnoli is the CRC-32C table shared by stamp and open.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// newFrame starts a datagram for tr: the envelope header's 13 bytes,
// reserved for stamp, with room for innerCap bytes of inner payload
// appended behind them. Every datagram gets a frame of its own, because
// the transport owns a frame from SendTo on — it may hold it, copy it or
// deliver it late — so a sent datagram must never alias a buffer the
// sender reuses. A transport that recycles frames (FrameSource) serves
// them, and a warm send allocates nothing; otherwise the frame is new.
func newFrame(tr Transport, innerCap int) []byte {
	if fs, ok := tr.(FrameSource); ok {
		return fs.Frame(envHeaderLen + innerCap)[:envHeaderLen]
	}
	return make([]byte, envHeaderLen, envHeaderLen+innerCap)
}

// stamp fills in the header of a frame whose inner payload is complete:
// the sender's next sequence number, the inner length and the checksum.
func (s *Stats) stamp(frame []byte) {
	s.envSeq++
	frame[0] = envVersion
	binary.BigEndian.PutUint32(frame[1:], s.envSeq)
	binary.BigEndian.PutUint32(frame[5:], wire.U32(uint64(len(frame)-envHeaderLen), nil))
	crc := crc32.Update(0, castagnoli, frame[:9])
	crc = crc32.Update(crc, castagnoli, frame[envHeaderLen:])
	binary.BigEndian.PutUint32(frame[9:], crc)
}

// open validates and unwraps one received datagram, doing the node's
// receive accounting (every Receive path funnels through it). It
// returns the inner payload and the sender's datagram sequence number.
// ok==false means the datagram was rejected and counted — not sealed
// by this envelope version (BadVersion), truncated or
// length-inconsistent (BadDatagram), or a checksum mismatch
// (BadChecksum).
func (s *Stats) open(payload []byte) (inner []byte, seq uint32, ok bool) {
	s.DatagramsRecv.Inc()
	s.BytesRecv.Add(int64(len(payload)))
	if len(payload) > 0 && payload[0] != envVersion {
		s.BadVersion.Inc()
		return nil, 0, false
	}
	if len(payload) < envHeaderLen ||
		int(binary.BigEndian.Uint32(payload[5:])) != len(payload)-envHeaderLen {
		s.BadDatagram.Inc()
		return nil, 0, false
	}
	crc := crc32.Update(0, castagnoli, payload[:9])
	crc = crc32.Update(crc, castagnoli, payload[envHeaderLen:])
	if crc != binary.BigEndian.Uint32(payload[9:]) {
		s.BadChecksum.Inc()
		return nil, 0, false
	}
	return payload[envHeaderLen:], binary.BigEndian.Uint32(payload[1:]), true
}

// seqFresh reports whether an envelope sequence number should update
// state previously stamped with last. Accepted: first contact (last 0),
// in-order progress, and regressions larger than envRestartGap (a
// restarted sender whose counter was not carried over). Rejected:
// duplicates and small regressions — the displacement a reordering
// fabric produces.
func seqFresh(last, seq uint32) bool {
	return last == 0 || seq > last || last-seq > envRestartGap
}
