package main

import (
	"reflect"
	"testing"
)

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"512", 512, true},
		{"0", 0, true},
		{"512B", 512, true},
		{"64KB", 64 << 10, true},
		{"64k", 64 << 10, true},
		{" 256 MB ", 256 << 20, true},
		{"256m", 256 << 20, true},
		{"1GB", 1 << 30, true},
		{"2G", 2 << 30, true},
		{"4294967296GB", 1 << 62, true},
		{"4294967297GB", 0, false}, // past the overflow guard
		// Only the one suffix that matched is a unit; what is left must be a
		// number ("5MK" used to parse as 5 KB).
		{"5MK", 0, false},
		{"5KMGB", 0, false},
		{"5BB", 0, false},
		{"MB", 0, false},
		{"", 0, false},
		{"-1KB", 0, false},
		{"1.5GB", 0, false},
		{"12TB", 0, false},
	}
	for _, c := range cases {
		got, err := parseByteSize(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseByteSize(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if got != c.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseFleetSpec(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"http://a:1", [][]string{{"http://a:1"}}},
		{"http://a:1/,https://b:2", [][]string{{"http://a:1", "https://b:2"}}},
		{" http://a:1 , http://b:2 ; http://c:3 ", [][]string{{"http://a:1", "http://b:2"}, {"http://c:3"}}},
		{"http://a:1,,http://b:2", [][]string{{"http://a:1", "http://b:2"}}},
		{"", nil},
		{"http://a:1;", nil}, // a shard group with no replica
		{";http://a:1", nil},
		{"a:1", nil}, // not an http(s) URL
		{"http://a:1,ftp://b", nil},
	}
	for _, c := range cases {
		got, err := parseFleetSpec(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseFleetSpec(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFleetSpec(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFleetSpec(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
