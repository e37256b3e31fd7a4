package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"galo/internal/rdf"
)

// FuzzWALDecode holds the two readers recovery runs over bytes a crash may
// have left behind. decodeRecord and parseSnapshot never panic on raw bytes.
// The bytes framed as a record payload — a valid length and CRC32C, so the
// payload decoder is reached — decode, when they decode at all, to a record
// whose Encode decodes back to it, consuming every byte. The bytes framed as a
// snapshot payload, and the raw bytes as a whole snapshot file, parse, when
// they parse at all, to triples that writeSnapshot writes back (through OsFS,
// rendered as a store renders them) to a file parsing to the same epoch and
// the same triples.
func FuzzWALDecode(f *testing.F) {
	records := []Record{
		{Version: 0},
		{Version: 7, Removed: []rdf.Triple{tri(1), tri(2)}, Added: []rdf.Triple{tri(3)}},
		{Version: 1 << 40, Added: []rdf.Triple{{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewNumericLiteral(3.5)}}},
	}
	for _, rec := range records {
		frame := rec.Encode()
		f.Add(frame, rec.Version)
		f.Add(frame[recordHeaderLen:], rec.Version)
	}
	// One payload spelled out byte by byte, so a seed reaches the round trip
	// even where Encode is what went wrong: version 7, no removals, one
	// addition <a> <b> "c".
	f.Add([]byte{7, 0, 1, byte(rdf.IRI), 1, 'a', byte(rdf.IRI), 1, 'b', byte(rdf.Literal), 1, 'c'}, uint64(7))
	nt := "<http://x/a> <http://x/b> \"c\" .\n<http://x/a> <http://x/b> \"line\\nbreak \\u00e9\" .\n"
	f.Add(snapshotFile(42, []byte(nt)), uint64(42))
	f.Add([]byte(nt), uint64(3))
	f.Add([]byte("GALOSNAP1 1 00000000 0\n"), uint64(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, uint64(0))
	f.Add([]byte{}, uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, epoch uint64) {
		decodeRecord(data)

		framed := make([]byte, recordHeaderLen, recordHeaderLen+len(data))
		binary.LittleEndian.PutUint32(framed[0:4], uint32(len(data)))
		binary.LittleEndian.PutUint32(framed[4:8], crc32.Checksum(data, castagnoli))
		if rec, n, err := decodeRecord(append(framed, data...)); err == nil {
			if n != len(framed)+len(data) {
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

		for _, file := range [][]byte{data, snapshotFile(epoch, data)} {
			if ep, triples, err := parseSnapshot(file); err == nil {
				snapshotRoundTrip(t, ep, triples)
			}
		}
	})
}

// snapshotFile frames a payload as writeSnapshot does.
func snapshotFile(epoch uint64, payload []byte) []byte {
	header := fmt.Sprintf("%s %d %08x %d\n", snapMagic, epoch, crc32.Checksum(payload, castagnoli), len(payload))
	return append([]byte(header), payload...)
}

// snapshotRoundTrip writes the triples back as a snapshot at epoch and
// requires the file to parse to that epoch and the same set of triples.
func snapshotRoundTrip(t *testing.T, epoch uint64, triples []rdf.Triple) {
	t.Helper()
	store := rdf.NewStore()
	store.AddAll(triples)
	dir := t.TempDir()
	if err := writeSnapshot(OsFS{}, dir, epoch, store.NTriples()); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	data, err := OsFS{}.ReadFile(join(dir, snapName(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	ep, again, err := parseSnapshot(data)
	if err != nil {
		t.Fatalf("a written snapshot does not parse: %v\n%s", err, data)
	}
	if ep != epoch {
		t.Fatalf("the written snapshot parses to epoch %d, want %d", ep, epoch)
	}
	want := map[rdf.Triple]bool{}
	for _, tr := range triples {
		want[tr] = true
	}
	got := map[rdf.Triple]bool{}
	for _, tr := range again {
		got[tr] = true
	}
	if len(again) != len(got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("the written snapshot holds %d triples (%d distinct), %d were parsed (%d distinct)\n%s",
			len(again), len(got), len(triples), len(want), data)
	}
}
