package sweepcli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/*.txt from the current output")

var commands = map[string]Command{Threshold.Name: Threshold, Sensitivity.Name: Sensitivity}

// A fixture file holds one command line, then the stdout and stderr it
// prints, each after a "-- stdout --" or "-- stderr --" line. Run must
// fail exactly when stderr is non-empty (-h fails with flag.ErrHelp).
const stdoutMark, stderrMark = "\n-- stdout --\n", "-- stderr --\n"

// listType and quotedDefault match the two places where -h may differ
// from the fixtures without changing a flag's name or default: a list
// flag's type placeholder ("string" before it was bound by flag.Func,
// "value" after) and the quotes around a string default.
var (
	listType      = regexp.MustCompile(`(?m)^  (-(?:distances|rates|values)) \S+$`)
	quotedDefault = regexp.MustCompile(`\(default "([^"]*)"\)`)
)

func normalizeUsage(s string) string {
	return quotedDefault.ReplaceAllString(listType.ReplaceAllString(s, "  $1"), "(default $1)")
}

// sortLines compares streamed -csv/-json rows as a set: they arrive in
// completion order, which varies with the pool width.
func sortLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	slices.Sort(lines)
	return strings.Join(lines, "")
}

// TestFixtures runs every command line under testdata and compares its
// tables, rows and error texts with the recorded ones. Regenerate the
// fixtures after an intended output change with
//
//	go test ./cmd/internal/sweepcli -run TestFixtures -update
func TestFixtures(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".txt"), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cmdline, rest, ok1 := strings.Cut(string(raw), stdoutMark)
			wantOut, wantErr, ok2 := strings.Cut(rest, stderrMark)
			args := strings.Fields(cmdline)
			c, ok3 := commands[args[0]]
			if !ok1 || !ok2 || !ok3 {
				t.Fatalf("%s: malformed fixture", path)
			}
			var stdout, stderr bytes.Buffer
			runErr := c.Run(args[1:], &stdout, &stderr)
			if *update {
				out := cmdline + stdoutMark + stdout.String() + stderrMark + stderr.String()
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if (runErr != nil) != (stderr.Len() > 0) {
				t.Errorf("Run returned %v with stderr %q", runErr, stderr.String())
			}
			gotOut := stdout.String()
			if slices.Contains(args, "-csv") || slices.Contains(args, "-json") {
				gotOut, wantOut = sortLines(gotOut), sortLines(wantOut)
			}
			if gotOut != wantOut {
				t.Errorf("stdout:\n%s\nwant:\n%s", gotOut, wantOut)
			}
			if got, want := normalizeUsage(stderr.String()), normalizeUsage(wantErr); got != want {
				t.Errorf("stderr:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// flagNames lists the flags c's -h prints.
func flagNames(t *testing.T, c Command) []string {
	var usage bytes.Buffer
	if err := c.Run([]string{"-h"}, io.Discard, &usage); err != flag.ErrHelp {
		t.Fatalf("%s -h: %v", c.Name, err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		names = append(names, m[1])
	}
	return names
}

// TestFlagsMatchSweepRequest keeps the flags and serve.SweepRequest in
// step: each JSON-tagged request field is a flag of one of the two
// commands, named by its tag with "_" as "-", and each flag is a field.
// The exceptions are named: fields only the HTTP service takes, and flags
// only the command line has.
func TestFlagsMatchSweepRequest(t *testing.T) {
	serviceOnly := []string{"type", "mode", "shard_shots", "no_cache"}
	cliOnly := []string{"csv", "json", "nrates", "nvalues"}

	fields := map[string]bool{}
	rt := reflect.TypeOf(serve.SweepRequest{})
	for i := range rt.NumField() {
		if tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); tag != "" && tag != "-" {
			fields[tag] = true
		}
	}
	flags := map[string]bool{}
	for _, c := range []Command{Threshold, Sensitivity} {
		for _, name := range flagNames(t, c) {
			flags[name] = true
			field := strings.ReplaceAll(name, "-", "_")
			if !fields[field] && !slices.Contains(cliOnly, name) {
				t.Errorf("%s -%s is no SweepRequest field and not a CLI-only flag", c.Name, name)
			}
			if slices.Contains(serviceOnly, field) {
				t.Errorf("%s -%s is listed as service-only", c.Name, name)
			}
		}
	}
	for field := range fields {
		name := strings.ReplaceAll(field, "_", "-")
		if !flags[name] && !slices.Contains(serviceOnly, field) {
			t.Errorf("SweepRequest field %q has no -%s flag and is not listed as service-only", field, name)
		}
	}
	for _, name := range cliOnly {
		if !flags[name] || fields[strings.ReplaceAll(name, "-", "_")] {
			t.Errorf("CLI-only flag -%s must be a flag and no SweepRequest field", name)
		}
	}
}
