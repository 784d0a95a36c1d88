// Package maporder is the maporder analyzer fixture: in a deterministic
// package, map iteration order must not reach an encoder or export sink
// without an intervening sort.
//
//kollaps:deterministic
package maporder

import "sort"

// BadDirect feeds the sink from inside the range: the wire sees
// randomized key order.
func BadDirect(m map[string]int, buf []byte) []byte {
	for k, v := range m { // want `map iteration order reaches sink encodeEntry`
		buf = encodeEntry(buf, k, v)
	}
	return buf
}

// BadCollect collects keys but encodes them unsorted.
func BadCollect(m map[string]int, buf []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m { // want `map range collects into a slice that reaches a sink without a sort`
		keys = append(keys, k)
	}
	for _, k := range keys {
		buf = encodeEntry(buf, k, m[k])
	}
	return buf
}

// BadMetadataCodec feeds the metadata wire codec's encoders (message and
// link list) from inside the range.
func BadMetadataCodec(m map[uint16][]uint16, buf []byte) []byte {
	for _, links := range m { // want `map iteration order reaches sink AppendLinks`
		buf = AppendLinks(buf, links, false)
	}
	for host := range m { // want `map iteration order reaches sink AppendEncode`
		buf = AppendEncode(buf, host)
	}
	return buf
}

// GoodSorted is the sanctioned sortedKeys idiom: collect, sort, encode.
func GoodSorted(m map[string]int, buf []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = encodeEntry(buf, k, m[k])
	}
	return buf
}

// GoodCounting never lets order escape: aggregation is commutative.
func GoodCounting(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// GoodAnnotated documents an order-immune range the heuristic would
// otherwise flag.
func GoodAnnotated(m map[string]int, buf []byte) []byte {
	//kollaps:orderok
	for _, v := range m {
		if v == 0 {
			return encodeEntry(buf, "zero", 0)
		}
	}
	return buf
}

func encodeEntry(buf []byte, k string, v int) []byte {
	buf = append(buf, k...)
	return append(buf, byte(v))
}

// AppendEncode and AppendLinks stand in for internal/metadata's encoders.
func AppendEncode(buf []byte, host uint16) []byte { return append(buf, byte(host)) }

func AppendLinks(buf []byte, links []uint16, wide bool) []byte {
	for _, l := range links {
		buf = append(buf, byte(l))
	}
	return buf
}
