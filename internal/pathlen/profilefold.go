package pathlen

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
)

// This file folds a pprof CPU profile by its sample labels — the
// offline cross-check of the live step attribution. The spine
// attributes time by instrumented regions; a sampled profile
// attributes it by where the PC actually was. When the bus threads sslstep/sslfn
// labels through (probe.SetProfileLabels), grouping profile samples
// by label must reproduce the spine's step shares; disagreement means
// uninstrumented work.
//
// The parser reads the gzipped profile.proto wire format directly —
// only the four fields folding needs (sample_type, sample, label,
// string_table) — so the repository stays stdlib-only.

// A FoldRow is one label value's share of the profile.
type FoldRow struct {
	Label    string  `json:"label"`
	Nanos    int64   `json:"nanos"`
	Samples  int64   `json:"samples"`
	SharePct float64 `json:"share_pct"`
}

// FoldUnlabeled is the row name for samples carrying no value for the
// requested label key (runtime, GC, uninstrumented code).
const FoldUnlabeled = "(unlabeled)"

// FoldProfile groups a pprof CPU profile's samples by the given label
// key (probe.LabelKeyStep, probe.LabelKeyFn, …), summing the cpu
// nanoseconds each label value accounts for. data may be gzipped (as
// pprof writes it) or raw protobuf.
func FoldProfile(data []byte, key string) ([]FoldRow, error) {
	prof, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	vi := prof.valueIndex()
	rows := map[string]*FoldRow{}
	var total int64
	for _, s := range prof.samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		name := FoldUnlabeled
		if lv, ok := s.labels[key]; ok {
			name = lv
		}
		r := rows[name]
		if r == nil {
			r = &FoldRow{Label: name}
			rows[name] = r
		}
		r.Nanos += v
		r.Samples++
		total += v
	}
	out := make([]FoldRow, 0, len(rows))
	for _, r := range rows {
		if total > 0 {
			r.SharePct = 100 * float64(r.Nanos) / float64(total)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Nanos != out[j].Nanos {
			return out[i].Nanos > out[j].Nanos
		}
		return out[i].Label < out[j].Label
	})
	return out, nil
}

// profile is the subset of profile.proto folding needs.
type profile struct {
	strings     []string
	sampleTypes []valueType
	samples     []sample
}

type valueType struct{ typ, unit string }

type sample struct {
	values []int64
	labels map[string]string
}

// valueIndex picks which sample value to sum: the "cpu" sample type
// when present (a CPU profile is samples/count, cpu/nanoseconds),
// otherwise the last value, pprof's own default.
func (p *profile) valueIndex() int {
	for i, st := range p.sampleTypes {
		if st.typ == "cpu" {
			return i
		}
	}
	if n := len(p.sampleTypes); n > 0 {
		return n - 1
	}
	return 0
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pathlen: bad gzip profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pathlen: bad gzip profile: %w", err)
		}
		data = raw
	}
	p := &profile{}
	// First pass collects the string table and raw messages; labels
	// reference strings, so samples decode in a second pass.
	var sampleMsgs, typeMsgs [][]byte
	err := scanFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: repeated ValueType
			typeMsgs = append(typeMsgs, b)
		case 2: // sample: repeated Sample
			sampleMsgs = append(sampleMsgs, b)
		case 6: // string_table: repeated string
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if int(i) < len(p.strings) {
			return p.strings[i]
		}
		return ""
	}
	for _, m := range typeMsgs {
		var vt valueType
		err := scanFields(m, func(field, wire int, v uint64, b []byte) error {
			switch field {
			case 1:
				vt.typ = str(v)
			case 2:
				vt.unit = str(v)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, vt)
	}
	for _, m := range sampleMsgs {
		s := sample{labels: map[string]string{}}
		err := scanFields(m, func(field, wire int, v uint64, b []byte) error {
			switch field {
			case 2: // value: repeated int64 (packed or not)
				if wire == 2 {
					return scanPacked(b, func(v uint64) {
						s.values = append(s.values, int64(v))
					})
				}
				s.values = append(s.values, int64(v))
			case 3: // label: repeated Label
				var key, val string
				err := scanFields(b, func(field, wire int, v uint64, b []byte) error {
					switch field {
					case 1:
						key = str(v)
					case 2:
						val = str(v)
					}
					return nil
				})
				if err != nil {
					return err
				}
				if key != "" && val != "" {
					s.labels[key] = val
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("pathlen: truncated profile")

// scanFields walks one protobuf message, calling fn per field with the
// varint value (wire type 0) or the payload bytes (wire type 2).
// Fixed32/fixed64 fields are skipped.
func scanFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pathlen: unsupported wire type %d", wire)
		}
	}
	return nil
}

// scanPacked decodes a packed repeated varint payload.
func scanPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// uvarint decodes one varint, returning the value and bytes consumed
// (0 when truncated).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i]&0x80 == 0 {
			return v, i + 1
		}
	}
	return 0, 0
}
