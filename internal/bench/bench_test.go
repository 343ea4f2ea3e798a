package bench

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// tinyCfg runs experiments fast: 2% scale, one trial, three-site fan-out.
func tinyCfg() Config {
	return Config{Scale: 0.02, Trials: 1, MaxSites: 3}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"table1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"app", "smallmsg", "ur", "cablemodem",
		"ablate-marshal", "ablate-adaptive", "ablate-reuse", "ablate-fanout",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown id succeeded")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table, "LAN") || !strings.Contains(res.Table, "WAN") {
		t.Fatalf("table:\n%s", res.Table)
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table, "256K") {
		t.Fatalf("table:\n%s", res.Table)
	}
}

func TestFig9SmallScale(t *testing.T) {
	// 1K: the basic protocol must win at the full fan-out. At 2% scale the
	// margin is about a tenth and one scheduler hiccup can eat it, so the
	// verdict is on the median of three runs, not on one.
	var basic, hybrid []float64
	var tables []string
	for run := 0; run < 3; run++ {
		res, err := figure(9)(tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(res.Table), "\n")
		row := strings.Fields(lines[len(lines)-1]) // sites, basic ms, hybrid ms, winner
		if len(row) != 4 {
			t.Fatalf("cannot read the last row:\n%s", res.Table)
		}
		b, errB := strconv.ParseFloat(row[1], 64)
		h, errH := strconv.ParseFloat(row[2], 64)
		if errB != nil || errH != nil {
			t.Fatalf("cannot read the last row:\n%s", res.Table)
		}
		basic, hybrid = append(basic, b), append(hybrid, h)
		tables = append(tables, res.Table)
	}
	sort.Float64s(basic)
	sort.Float64s(hybrid)
	if basic[1] >= hybrid[1] {
		t.Fatalf("1K LAN at max sites: median basic %.3g ms is not under median hybrid %.3g ms:\n%s",
			basic[1], hybrid[1], strings.Join(tables, "\n"))
	}
}

func TestFig13SmallScale(t *testing.T) {
	// 256K: the hybrid protocol must win at the full fan-out.
	cfg := tinyCfg()
	cfg.MaxSites = 2
	res, err := figure(13)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(res.Table), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(strings.TrimSpace(last), "hybrid") {
		t.Fatalf("256K LAN winner should be hybrid:\n%s", res.Table)
	}
}

func TestAppBreakdownShape(t *testing.T) {
	res, err := AppBreakdown(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"marshaling", "lock acquisition", "transfer", "total"} {
		if !strings.Contains(res.Table, comp) {
			t.Fatalf("missing %q:\n%s", comp, res.Table)
		}
	}
}

func TestSmallMessagesShape(t *testing.T) {
	res, err := SmallMessages(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table, "256") {
		t.Fatalf("table:\n%s", res.Table)
	}
}

func TestURSweepShape(t *testing.T) {
	res, err := URSweep(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table, "UR") {
		t.Fatalf("table:\n%s", res.Table)
	}
}

func TestAblations(t *testing.T) {
	if _, err := AblateMarshal(tinyCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := AblateAdaptive(tinyCfg()); err != nil {
		t.Fatal(err)
	}
	res, err := AblateReuse(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table, "hybrid+reuse") {
		t.Fatalf("table:\n%s", res.Table)
	}
	fo, err := AblateFanout(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fo.Table, "sequential") || !strings.Contains(fo.Table, "parallel") {
		t.Fatalf("table:\n%s", fo.Table)
	}
}

func TestCableModemEnv(t *testing.T) {
	res, err := CableModemEnv(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table, "cable modem") {
		t.Fatalf("table:\n%s", res.Table)
	}
}
