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

// This file turns the traced run's CPU profile into per-module CPU
// shares. Each sample is charged to the innermost stack frame that
// belongs to a repository package, so sha256 under SimSuite.Verify counts
// as crypto and memmove under removeFromPool counts as hotstuff. Samples
// with no repository frame count as runtime; the benchmark's own frames
// count as bench. The profile is decoded with a minimal reader of the
// pprof protobuf format, since the standard library has none.

// modules lists the layers a share is reported for (as <module>.cpu_share).
var modules = []string{
	"sim", "network", "crypto", "metrics", "quorum", "core", "baseline",
	"viewcore", "hotstuff", "workload", "statemachine", "adversary",
	"harness", "nettcp", "clock", "msg", "pacemaker", "replica", "types",
	"trace", "runtime", "bench",
}

// moduleOf maps a profiled function name to its module, or "" when the
// function is not in the repository.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "lumiere/internal/")
	if !ok {
		return ""
	}
	end := strings.IndexAny(rest, "/.")
	if end < 0 {
		return rest
	}
	return rest[:end]
}

// pbuf is a cursor over one protobuf message.
type pbuf struct{ b []byte }

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		return 0, errTruncated
	}
	p.b = p.b[n:]
	return v, nil
}

// field reads the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). Fixed-width fields are skipped.
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{payload}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type sample struct {
	locs   []uint64
	weight int64
}

// moduleTimes decodes a gzipped CPU profile and adds each module's
// sampled CPU time to times.
func moduleTimes(gz []byte, times map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, payload, err := p.field()
		if err != nil {
			return err
		}
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, w, x, pl, err := q.field()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, x, pl)
				case 2:
					vals, err = uints(vals, w, x, pl)
				}
				if err != nil {
					return err
				}
			}
			// CPU profiles carry [samples, nanoseconds]; weigh by time.
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, _, x, pl, err := q.field()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					id = x
				case 4: // line
					r := pbuf{pl}
					for len(r.b) > 0 {
						ln, _, lx, _, err := r.field()
						if err != nil {
							return err
						}
						if ln == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // function
			var id, name uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, _, x, _, err := q.field()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(payload))
		}
	}

	for _, s := range samples {
		mod := "runtime"
	stack:
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if si := funcs[f]; si < uint64(len(strs)) {
					if m := moduleOf(strs[si]); m != "" {
						mod = m
						break stack
					}
				}
			}
		}
		times[mod] += float64(s.weight)
	}
	return nil
}

// attributeProfile sets <module>.cpu_share for every module from the
// run's profiles.
func attributeProfile(r *run) error {
	times := map[string]float64{}
	for _, p := range r.profiles {
		if err := moduleTimes(p.Bytes(), times); err != nil {
			return err
		}
	}
	var total float64
	for _, t := range times {
		total += t
	}
	if total == 0 {
		return errors.New("the profiles hold no samples")
	}
	for _, m := range modules {
		r.set(m+".cpu_share", times[m]/total)
	}
	for m, t := range times {
		fmt.Printf("cpu_share %-12s %.4f\n", m, t/total)
	}
	return nil
}
