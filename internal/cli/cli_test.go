package cli

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ikrq/internal/search"
)

func TestParseConditions(t *testing.T) {
	cond, err := ParseConditions("", "")
	if err != nil || cond != nil {
		t.Fatalf("empty specs: got %v, %v", cond, err)
	}
	cond, err = ParseConditions("3, 17", "12:30,40:15.5")
	if err != nil {
		t.Fatal(err)
	}
	if !cond.Closed(3) || !cond.Closed(17) || cond.Closed(12) {
		t.Errorf("closures wrong: %v", cond.ClosedDoors())
	}
	if cond.Penalty(12) != 30 || cond.Penalty(40) != 15.5 {
		t.Errorf("penalties wrong: %v", cond)
	}

	for _, bad := range []struct{ c, d string }{
		{"x", ""}, {"", "12"}, {"", "12:abc"}, {"", "12:-3"}, {"", "12:+Inf"},
		// IDs that do not fit a door ID must not wrap onto a real door
		// (4294967301 truncates to door 5).
		{"4294967301", ""}, {"", "4294967301:5"},
	} {
		if _, err := ParseConditions(bad.c, bad.d); err == nil {
			t.Errorf("ParseConditions(%q, %q) accepted", bad.c, bad.d)
		}
	}
}

func TestParseVariant(t *testing.T) {
	v, opt, err := ParseVariant("KoE*")
	if err != nil || v != search.VariantKoEStar || !opt.Precompute {
		t.Fatalf("KoE*: %v %+v %v", v, opt, err)
	}
	if _, _, err := ParseVariant("nope"); err == nil {
		t.Error("unknown variant accepted")
	}
	if list := VariantList(); !strings.Contains(list, "ToE\\P") || !strings.Contains(list, "KoE*") {
		t.Errorf("VariantList = %q", list)
	}
}

// TestFail table-tests the shared error exit path: usage errors exit 2
// with a usage pointer, runtime errors exit 1, nil exits 0 — the same
// behavior for every command name.
func TestFail(t *testing.T) {
	cases := []struct {
		name     string
		tool     string
		err      error
		code     int
		want     []string
		dontWant []string
	}{
		{
			name: "usage error",
			tool: "ikrq",
			err:  Usagef("unknown variant %q", "nope"),
			code: ExitUsage,
			want: []string{"ikrq: unknown variant \"nope\"", "run 'ikrq -h' for usage"},
		},
		{
			name: "wrapped usage error",
			tool: "ikrqbench",
			err:  fmt.Errorf("reading flags: %w", Usagef("bad -close entry %q", "x")),
			code: ExitUsage,
			want: []string{"ikrqbench: reading flags: bad -close entry \"x\"", "run 'ikrqbench -h'"},
		},
		{
			name:     "runtime error",
			tool:     "ikrqgen",
			err:      errors.New("open mall.ikrq: no such file"),
			code:     ExitFailure,
			want:     []string{"ikrqgen: open mall.ikrq: no such file"},
			dontWant: []string{"-h"},
		},
		{
			name: "nil error",
			tool: "ikrq",
			err:  nil,
			code: ExitOK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			if code := Fail(&buf, tc.tool, tc.err); code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			out := buf.String()
			if tc.err == nil && out != "" {
				t.Errorf("nil error printed %q", out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output %q missing %q", out, w)
				}
			}
			for _, dw := range tc.dontWant {
				if strings.Contains(out, dw) {
					t.Errorf("output %q should not contain %q", out, dw)
				}
			}
		})
	}
}

// TestFlagErrorsAreUsageErrors pins the classification the commands rely
// on: every malformed flag value the shared parsers reject must exit 2.
func TestFlagErrorsAreUsageErrors(t *testing.T) {
	if _, _, err := ParseVariant("ToE\\X"); !IsUsage(err) {
		t.Errorf("unknown -alg not a usage error: %v", err)
	}
	for _, bad := range []struct{ c, d string }{
		{"x", ""}, {"", "12"}, {"", "12:abc"}, {"", "12:-3"}, {"", "12:+Inf"},
		{"4294967301", ""}, {"", "4294967301:5"},
	} {
		if _, err := ParseConditions(bad.c, bad.d); !IsUsage(err) {
			t.Errorf("ParseConditions(%q, %q): not a usage error: %v", bad.c, bad.d, err)
		}
	}
	if _, _, err := ParseVariant("KoE"); err != nil {
		t.Errorf("valid variant errored: %v", err)
	}
}
