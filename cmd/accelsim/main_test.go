package main

import (
	"slices"
	"testing"
)

func TestParseDisable(t *testing.T) {
	cases := []struct {
		list    string
		want    []string
		wantErr bool
	}{
		{list: "", want: nil},
		{list: "mem2reg", want: []string{"mem2reg"}},
		{list: "inline", want: []string{"inline"}},
		{list: " constfold , dce ,, simplifycfg,", want: []string{"constfold", "dce", "simplifycfg"}},
		{list: "bogus", wantErr: true},
		{list: "mem2reg,bogus", wantErr: true},
		// fuse is an interp lowering option, not an O1 pass.
		{list: "fuse", wantErr: true},
		{list: "MEM2REG", wantErr: true},
	}
	for _, c := range cases {
		got, err := parseDisable(c.list)
		if (err != nil) != c.wantErr {
			t.Errorf("parseDisable(%q) error = %v, want error %v", c.list, err, c.wantErr)
			continue
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("parseDisable(%q) = %q, want %q", c.list, got, c.want)
		}
	}
}
