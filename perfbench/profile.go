package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// flatProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, into flat (self) weight per function name. Each sample is
// charged to the innermost function of its leaf location, which is the
// function the CPU was executing. valueIndex selects the sample value
// (0 = sample count, 1 = CPU nanoseconds for Go CPU profiles).
//
// Only the fields needed for that are decoded: samples, locations with
// their line entries, functions and the string table.
func flatProfile(gz []byte, valueIndex int) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf   uint64
		values []int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id; the first one is the leaf
					return repeated(v, b, func(id uint64) {
						if first {
							s.leaf, first = id, false
						}
					})
				case 2: // value
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if seenLine {
						return nil
					}
					seenLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := make(map[string]int64)
	for _, s := range samples {
		if valueIndex >= len(s.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(s.values), valueIndex)
		}
		name := "unknown"
		if si, ok := funcName[locFunc[s.leaf]]; ok && si < uint64(len(strs)) {
			name = strs[si]
		}
		flat[name] += s.values[valueIndex]
	}
	return flat, nil
}

// fields walks the protobuf fields of msg, passing each field's number
// and either its varint value or its length-delimited bytes to fn.
// Fixed-width fields are skipped; pprof profiles use none.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated delivers the values of a repeated varint field, which the
// encoder writes either one per field (b == nil) or packed into one
// length-delimited field.
func repeated(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
