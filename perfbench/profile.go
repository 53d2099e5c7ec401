package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profBuckets are the host-time buckets of the CPU profile: the simulator's
// own layers by package, "other" for the remaining doceph/internal
// packages, "gc" for the background collector and "runtime" for every
// other sample with no doceph/internal frame (scheduler, harness).
var profBuckets = []string{"sim", "messenger", "osd", "bluestore", "core", "doca", "dpu",
	"rados", "cephmsg", "wire", "trace", "other", "gc", "runtime"}

const internalPrefix = "doceph/internal/"

// attribute charges each sample of a gzipped pprof CPU profile to the
// innermost doceph/internal/<pkg> frame of its stack and returns each
// bucket's share of all samples, in percent.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	known := make(map[string]bool)
	for _, b := range profBuckets {
		known[b] = true
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		bucket := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcNames[fn]]
				if strings.HasPrefix(name, internalPrefix) {
					pkg := name[len(internalPrefix):]
					if i := strings.IndexAny(pkg, "./"); i >= 0 {
						pkg = pkg[:i]
					}
					bucket = "other"
					if known[pkg] {
						bucket = pkg
					}
					break frames
				}
				if strings.HasPrefix(name, "runtime.gcBgMarkWorker") || strings.HasPrefix(name, "runtime.bgsweep") ||
					strings.HasPrefix(name, "runtime.bgscavenge") {
					bucket = "gc"
				}
			}
		}
		counts[bucket] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		out[b] = 0
		if total > 0 {
			out[b] = float64(counts[b]) / float64(total) * 100
		}
	}
	return out, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // first value: the sample count
}

// decodeProfile parses the uncompressed profile.proto message: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return repeated(v, data, &s.locs)
				case 2:
					return repeated(v, data, &values)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// repeated appends a repeated varint field, packed (data) or not (v).
func repeated(v uint64, data []byte, out *[]uint64) error {
	if data == nil {
		*out = append(*out, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*out = append(*out, x)
		data = data[n:]
	}
	return nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its bytes
// (non-nil, possibly empty). Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if typ == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data = b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
