package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A reader for the few profile.proto fields CPU-share attribution
// needs: each sample's value and its stack as function names, leaf
// first. runtime/pprof writes gzip-compressed protobuf with symbolized
// locations; nothing outside the standard library can read it, hence
// this.

type cpuSample struct {
	Stack []string // function names, innermost first
	Value int64    // the last value of the sample (cpu nanoseconds)
}

// protoBuf walks one protobuf message.
type protoBuf struct {
	b   []byte
	err error
}

func (p *protoBuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = fmt.Errorf("pprof: varint overflow")
	return 0
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes.
func (p *protoBuf) next() (field int, v uint64, data []byte, ok bool) {
	if p.err != nil || len(p.b) == 0 {
		return 0, 0, nil, false
	}
	key := p.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v = p.varint()
	case 1:
		data = p.take(8)
	case 2:
		data = p.take(int(p.varint()))
	case 5:
		data = p.take(4)
	default:
		p.err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, data, p.err == nil
}

func (p *protoBuf) take(n int) []byte {
	if n < 0 || n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	d := p.b[:n]
	p.b = p.b[n:]
	return d
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(v uint64, data []byte, dst []uint64) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	p := protoBuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(raw []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id → string index
		stringTab []string
	)
	top := protoBuf{b: b}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // sample
			var s rawSample
			m := protoBuf{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs = repeatedVarints(v, d, s.locs)
				case 2:
					s.vals = repeatedVarints(v, d, s.vals)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			m := protoBuf{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // line
					l := protoBuf{b: d}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			m := protoBuf{b: data}
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string table
			stringTab = append(stringTab, string(data))
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{Value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx < uint64(len(stringTab)) {
					cs.Stack = append(cs.Stack, stringTab[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuLayers are the layers CPU time is billed to; their shares sum to 1.
var cpuLayers = []string{
	"sim", "netem", "fabric", "transport", "tcal", "core", "dissem", "metadata",
	"topology", "graph", "chaos", "obs", "bench", "other", "runtime.gc",
}

// layerOf bills a stack to the innermost frame that belongs to the
// program or the harness, so container/heap and mallocgc time lands on
// the layer that caused it. Stacks with no such frame (background GC
// workers, the profiler's own signal handling) go to runtime.gc.
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "repro/internal/"):
			pkg := fn[len("repro/internal/"):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other" // packet, metrics, units, wire
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/bench."):
			return "bench"
		case strings.HasPrefix(fn, "repro/"):
			return "other" // repro/kollaps wrappers
		}
	}
	return "runtime.gc"
}

// inMalloc reports whether the sample was taken inside the allocator.
func inMalloc(stack []string) bool {
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return true
		}
	}
	return false
}
