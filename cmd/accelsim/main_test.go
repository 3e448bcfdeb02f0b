package main

import (
	"slices"
	"strings"
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

func TestCheckExp(t *testing.T) {
	for _, id := range experimentIDs {
		if err := checkExp(id); err != nil {
			t.Errorf("checkExp(%q) = %v, want nil", id, err)
		}
	}
	// The live-runtime harnesses are gone: their ids fail like any typo.
	for _, id := range []string{"", "bogus", "live", "service", "FIG2", "fig16"} {
		err := checkExp(id)
		if err == nil {
			t.Errorf("checkExp(%q) = nil, want an error", id)
			continue
		}
		for _, valid := range experimentIDs {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("checkExp(%q) error %q does not name %q", id, err, valid)
			}
		}
	}
}
