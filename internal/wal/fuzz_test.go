package wal

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"galo/internal/rdf"
)

// FuzzWALDecode holds the one reader recovery runs over bytes a crash may
// have left behind: decodeRecord, which reads log segments and, through
// parseSnapshot, snapshot files. Neither panics on raw bytes. The bytes
// framed as a record payload — a valid length and CRC32C, so the payload
// decoder is reached — decode, when they decode at all, to a record whose
// Encode decodes back to it, consuming every byte. The raw bytes, and the
// framed ones, parse as a snapshot, when they parse at all, to an epoch and
// triples that writeSnapshot writes back (through OsFS, from a store restored
// at that epoch) to a file parsing to the same epoch and the same triples.
func FuzzWALDecode(f *testing.F) {
	records := []Record{
		{Version: 0},
		{Version: 7, Removed: []rdf.Triple{tri(1), tri(2)}, Added: []rdf.Triple{tri(3)}},
		{Version: 1 << 40, Added: []rdf.Triple{{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewNumericLiteral(3.5)}}},
		{Version: 42, Added: []rdf.Triple{tri(1), tri(1), {S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/b"), O: rdf.NewLiteral("line\nbreak é")}}},
	}
	for _, rec := range records {
		frame := rec.Encode()
		f.Add(frame)
		f.Add(frame[recordHeaderLen:])
	}
	// One payload spelled out byte by byte, so a seed reaches the round trip
	// even where Encode is what went wrong: version 7, no removals, one
	// addition <a> <b> "c".
	f.Add([]byte{7, 0, 1, byte(rdf.IRI), 1, 'a', byte(rdf.IRI), 1, 'b', byte(rdf.Literal), 1, 'c'})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{})
	// A segment of two records: decodeRecord reads the first, and
	// parseSnapshot refuses the bytes that follow it.
	f.Add(append(records[1].Encode(), records[2].Encode()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRecord(data)

		framed := make([]byte, recordHeaderLen, recordHeaderLen+len(data))
		binary.LittleEndian.PutUint32(framed[0:4], uint32(len(data)))
		binary.LittleEndian.PutUint32(framed[4:8], crc32.Checksum(data, castagnoli))
		framed = append(framed, data...)
		if rec, n, err := decodeRecord(framed); err == nil {
			if n != len(framed) {
				t.Fatalf("decoded a framed payload of %d bytes in %d", len(data), n)
			}
			enc := rec.Encode()
			again, n, err := decodeRecord(enc)
			if err != nil {
				t.Fatalf("Encode of %+v does not decode: %v", rec, err)
			}
			if n != len(enc) {
				t.Fatalf("decoding the %d bytes Encode wrote consumed %d", len(enc), n)
			}
			if !reflect.DeepEqual(again, rec) {
				t.Fatalf("Encode then decode gave %+v, want %+v", again, rec)
			}
		}

		for _, file := range [][]byte{data, framed} {
			if rec, err := parseSnapshot(file); err == nil {
				snapshotRoundTrip(t, rec)
			}
		}
	})
}

// snapshotRoundTrip writes a parsed snapshot's triples back as a snapshot at
// its epoch and requires the file to parse to that epoch and the same set of
// triples, each once.
func snapshotRoundTrip(t *testing.T, rec Record) {
	t.Helper()
	dir := t.TempDir()
	if err := writeSnapshot(OsFS{}, dir, rdf.RestoreStore(rec.Added, rec.Version).Snapshot()); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	data, err := OsFS{}.ReadFile(join(dir, snapName(rec.Version)))
	if err != nil {
		t.Fatal(err)
	}
	again, err := parseSnapshot(data)
	if err != nil {
		t.Fatalf("a written snapshot does not parse: %v", err)
	}
	if again.Version != rec.Version {
		t.Fatalf("the written snapshot parses to epoch %d, want %d", again.Version, rec.Version)
	}
	want := map[rdf.Triple]bool{}
	for _, tr := range rec.Added {
		want[tr] = true
	}
	got := map[rdf.Triple]bool{}
	for _, tr := range again.Added {
		got[tr] = true
	}
	if len(again.Added) != len(got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("the written snapshot holds %d triples (%d distinct), %d were parsed (%d distinct)",
			len(again.Added), len(got), len(rec.Added), len(want))
	}
}
