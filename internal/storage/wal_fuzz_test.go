package storage

import (
	"bytes"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the WAL scanner. The invariants:
// never panic, decode only CRC-clean records with sane lengths and strictly
// increasing LSNs, report a valid byte count that covers exactly the decoded
// records, and — when the input is a valid log plus garbage — decode exactly
// the valid prefix (a torn tail truncates, it never corrupts recovery).
func FuzzWALDecode(f *testing.F) {
	// Seed with a real three-record log produced by the encoder. The first
	// checkpoint only takes LSN 1, so the log holds LSNs 2, 3 and 4.
	seed := NewMemLogFile()
	w, err := OpenWAL(seed)
	if err != nil {
		f.Fatal(err)
	}
	var p Page
	p.InitPage()
	if _, err := p.InsertRecord([]byte("seed record")); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Checkpoint(); err != nil {
			f.Fatal(err)
		}
	}
	end, err := w.AppendGroup([]PageImage{{ID: 4, Page: &p}})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WaitDurable(end); err != nil {
		f.Fatal(err)
	}
	valid := seed.Bytes() // checkpoint marker + page image + commit marker
	f.Add(valid)
	f.Add(valid[:len(valid)/2])         // torn mid-record
	f.Add(append([]byte{}, 0, 1, 2, 3)) // garbage
	f.Add(encodeRecord(1, recPageImage, make([]byte, 4+PageSize)))
	f.Add(encodeRecord(9, recCheckpoint, nil))
	f.Add(encodeRecord(5, recCommit, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := scanWAL(data)
		if n < 0 || n > len(data) {
			t.Fatalf("valid byte count %d out of range [0,%d]", n, len(data))
		}
		var prev LSN
		off := 0
		for i, r := range recs {
			if r.lsn <= prev {
				t.Fatalf("record %d: LSN %d not above %d", i, r.lsn, prev)
			}
			prev = r.lsn
			if r.typ != recPageImage && r.typ != recCheckpoint && r.typ != recCommit {
				t.Fatalf("record %d: unknown type %d accepted", i, r.typ)
			}
			if r.typ == recPageImage && len(r.payload) != 4+PageSize {
				t.Fatalf("record %d: page image with %d payload bytes", i, len(r.payload))
			}
			// Each accepted record must re-encode to the bytes it came from:
			// the scanner accepts nothing the encoder could not have written.
			enc := encodeRecord(r.lsn, r.typ, r.payload)
			if off+len(enc) > len(data) || !bytes.Equal(enc, data[off:off+len(enc)]) {
				t.Fatalf("record %d does not round-trip through the encoder", i)
			}
			off += len(enc)
		}
		if off != n {
			t.Fatalf("decoded records cover %d bytes but scanner reports %d valid", off, n)
		}

		// A valid log followed by this input decodes at least the valid log:
		// appended garbage must truncate, never mask earlier records.
		combined := append(append([]byte{}, valid...), data...)
		recs2, n2 := scanWAL(combined)
		if n2 < len(valid) {
			t.Fatalf("garbage tail shrank the valid prefix: %d < %d", n2, len(valid))
		}
		if len(recs2) < 3 { // the seed is checkpoint marker + image + commit marker
			t.Fatalf("garbage tail lost records: %d < 3", len(recs2))
		}

		// And OpenWAL over the same bytes must position at the last group
		// marker — trailing page images with no marker are an unfinished
		// group, discarded like a torn tail — and replay without error.
		keep := 0
		off2 := 0
		for _, r := range recs {
			off2 += walHeaderSize + len(r.payload)
			if r.typ != recPageImage {
				keep = off2
			}
		}
		lf := NewMemLogFile()
		if _, err := lf.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(lf)
		if err != nil {
			t.Fatalf("OpenWAL on fuzzed bytes: %v", err)
		}
		if size, _ := lf.Size(); size != int64(keep) {
			t.Fatalf("OpenWAL truncated to %d, want the last-marker prefix %d (scanner valid %d)", size, keep, n)
		}
		if _, err := w.ReplayInto(NewMemPager()); err != nil {
			t.Fatalf("replay of fuzzed bytes: %v", err)
		}
	})
}
