package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuShares attributes a CPU profile to layers. It decodes the gzipped
// profile.proto that runtime/pprof writes and returns, for every layer,
// its percentage of the sampled CPU time by the package of each sample's
// leaf frame (self time). A profile without samples yields all zeros.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total float64
	for _, s := range p.samples {
		total += float64(s.value)
	}
	if total == 0 {
		return shares, nil
	}
	for _, s := range p.samples {
		shares[layerOf(pkgOf(p.leafName(s.leaf)))] += 100 * float64(s.value) / total
	}
	return shares, nil
}

// pkgOf returns the import path of the package a symbol belongs to:
// "c4/internal/netsim" for "c4/internal/netsim.(*Network).settle". Symbols
// without a package ("aeshashbody") are the runtime's assembly routines.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold dots
		fn = fn[:i]
	}
	dir := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[dir:], '.'); dot >= 0 {
		return fn[:dir+dot]
	}
	return "runtime"
}

// layerOf maps a package import path onto a layer name of the layers list.
// reflect and strconv count with encoding/json, which drives most of their
// use here.
func layerOf(pkg string) string {
	switch {
	case pkg == "main", pkg == "c4/bench/perf":
		return "bench"
	case pkg == "c4":
		return "c4"
	case strings.HasPrefix(pkg, "c4/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "c4/internal/"), "/")
		if slices.Contains(layers, name) {
			return name
		}
		return "other"
	case hasPathPrefix(pkg, "net"), pkg == "internal/poll", pkg == "syscall", pkg == "internal/runtime/syscall":
		return "go.net"
	case hasPathPrefix(pkg, "runtime"), hasPathPrefix(pkg, "internal/runtime"),
		hasPathPrefix(pkg, "sync"), pkg == "internal/sync", pkg == "internal/abi":
		return "go.runtime"
	case pkg == "container/heap":
		return "go.heap"
	case pkg == "encoding/json", pkg == "reflect", pkg == "strconv":
		return "go.json"
	case pkg == "sort", pkg == "slices", pkg == "cmp":
		return "go.sort"
	}
	return "other"
}

func hasPathPrefix(pkg, prefix string) bool {
	return pkg == prefix || strings.HasPrefix(pkg, prefix+"/")
}

// profile is the part of a profile.proto message self-time attribution
// needs: each sample's leaf location and CPU value, and the tables that
// resolve a location to a function name.
type profile struct {
	samples []sample
	locFunc map[uint64]uint64 // location ID -> innermost function ID
	funName map[uint64]int64  // function ID -> string table index
	strings []string
}

type sample struct {
	leaf  uint64
	value int64
}

func (p *profile) leafName(loc uint64) string {
	i, ok := p.funName[p.locFunc[loc]]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return "unknown"
	}
	return p.strings[i]
}

// Field numbers of the profile.proto messages read here
// (github.com/google/pprof/proto/profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// decodeProfile parses a gzipped profile.proto with a minimal protobuf
// wire-format reader. The sampled value is the "cpu" sample type when the
// profile has one, else the last type.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFunc: map[uint64]uint64{}, funName: map[uint64]int64{}}
	var typeNames []int64
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var raws []rawSample
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case sampleLocation:
					s.locs, err = appendPacked(s.locs, v, b)
				case sampleValue:
					s.values, err = appendPacked(s.values, v, b)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case profLocation:
			var id, fn uint64
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == locationID:
					id = v
				case num == locationLine && first:
					// Lines run from the innermost inlined call outwards.
					first = false
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := len(typeNames) - 1
	for i, n := range typeNames {
		if n >= 0 && int(n) < len(p.strings) && p.strings[n] == "cpu" {
			vi = i
		}
	}
	for _, s := range raws {
		if len(s.locs) == 0 || vi < 0 || vi >= len(s.values) {
			continue
		}
		p.samples = append(p.samples, sample{leaf: s.locs[0], value: int64(s.values[vi])})
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the fields of one protobuf message, calling fn with each
// field's number and either its varint value or its length-delimited
// bytes. Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, whether the
// field was written packed (b holds them) or as a single varint (v).
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// uvarint decodes a base-128 varint, returning the value and the bytes
// read, or 0 bytes on truncated or overlong input.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
