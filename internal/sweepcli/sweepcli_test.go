package sweepcli

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"cmpsched/internal/config"
	"cmpsched/internal/sweep"
)

// parse binds the grid flags to a fresh flag set and parses args.
func parse(t *testing.T, args ...string) (sweep.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return g.Spec()
}

func TestBindDefaults(t *testing.T) {
	s, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.Spec{
		Workloads:  []string{"mergesort", "hashjoin", "lu"},
		Schedulers: []string{"pdf", "ws"},
		Tables:     []string{sweep.TableDefault},
		Topologies: []string{"shared"},
		Scale:      config.DefaultScale,
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("default spec = %+v, want %+v", s, want)
	}
}

func TestBindEveryFlag(t *testing.T) {
	s, err := parse(t, "-workloads", "bfs, sssp", "-schedulers", "pdf,ws:nearest", "-tables", "45nm",
		"-topology", "shared,clustered:4", "-cores", "2, 8", "-scale", "32", "-quick", "-seq", "-graph-repr", "compressed")
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.Spec{
		Workloads:  []string{"bfs", "sssp"},
		Schedulers: []string{"pdf", "ws:nearest"},
		Tables:     []string{sweep.Table45nm},
		Cores:      []int{2, 8},
		Topologies: []string{"shared", "clustered:4"},
		Scale:      32,
		Quick:      true,
		Sequential: true,
		GraphRepr:  "compressed",
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("spec = %+v, want %+v", s, want)
	}
}

// TestBindRejectsBadValues: the binder validates, so a bad flag fails
// before anything runs — a negative -scale included.
func TestBindRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "-1"}, "negative scale"},
		{[]string{"-cores", "two"}, "bad -cores"},
		{[]string{"-workloads", "nope"}, "nope"},
		{[]string{"-graph-repr", "sparse"}, "sparse"},
	} {
		if _, err := parse(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

func TestPrintListNamesEveryAxis(t *testing.T) {
	var buf bytes.Buffer
	PrintList(&buf)
	for _, want := range []string{"workloads:", "mergesort", "schedulers:", "pdf", `"seq"`, "topologies:", "tables:", "45nm"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-list output lacks %q:\n%s", want, buf.String())
		}
	}
}
