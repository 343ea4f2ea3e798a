package mocha

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mocha/internal/check"
	"mocha/internal/obs"
)

// TestOptionsWriteNodeConfig checks that each node-level option sets the
// core.Config field it names, and nothing else, in the config siteConfig
// hands every site's node, simulated or real; and that every core.Config
// field has an option or is filled in per site.
func TestOptionsWriteNodeConfig(t *testing.T) {
	reg := obs.NewRegistry()
	sink := check.NewRecorder(0, nil)
	cases := map[string]struct {
		opt  Option
		want any
	}{
		"Mode":                {WithTransferMode(ModeHybrid), ModeHybrid},
		"StreamReuse":         {WithStreamReuse(), true},
		"DisseminationFanout": {WithDisseminationFanout(3), 3},
		"DeltaTransfer":       {WithDeltaTransfer(), true},
		"DisseminationTree":   {WithDisseminationTree(), true},
		"HomePlacement":       {WithHomePlacement(), true},
		"DefaultLease":        {WithLease(7 * time.Second), 7 * time.Second},
		"RequestTimeout":      {WithRequestTimeout(3 * time.Second), 3 * time.Second},
		"TransferTimeout":     {WithTransferTimeout(9 * time.Second), 9 * time.Second},
		"LeaseSweep":          {WithLeaseSweep(70 * time.Millisecond), 70 * time.Millisecond},
		"History":             {WithHistory(sink), HistorySink(sink)},
		"Metrics":             {WithMetrics(reg), reg},
		"StoreDir":            {WithDurableStore("root"), filepath.Join("root", "site-2")},
		"StoreMemLimit":       {WithStoreMemLimit(1 << 20), 1 << 20},
	}
	// Filled in per site by siteConfig, or (FaultHook, LeaseSkew) by a
	// test harness's StartSimSites hook; IsHome is ignored.
	perSite := map[string]bool{
		"Site": true, "Endpoint": true, "Stack": true, "Directory": true, "Codec": true,
		"Cost": true, "Log": true, "FaultHook": true, "LeaseSkew": true, "IsHome": true,
	}
	directory := map[SiteID]string{1: "a", 2: "b"}
	base := reflect.ValueOf((&options{scale: 1}).siteConfig(2, nil, directory))
	if n := len(cases) + len(perSite); n != base.NumField() {
		t.Errorf("%d options and per-site fields for %d core.Config fields", n, base.NumField())
	}
	for i := 0; i < base.NumField(); i++ {
		field := base.Type().Field(i).Name
		c, ok := cases[field]
		if !ok {
			if !perSite[field] {
				t.Errorf("core.Config.%s has no option and is not filled in per site", field)
			}
			continue
		}
		o := options{scale: 1}
		c.opt(&o)
		got := reflect.ValueOf(o.siteConfig(2, nil, directory))
		for j := 0; j < got.NumField(); j++ {
			name, v := got.Type().Field(j).Name, got.Field(j).Interface()
			if name == field && !reflect.DeepEqual(v, c.want) {
				t.Errorf("Config.%s = %v, want %v", field, v, c.want)
			} else if name != field && !perSite[name] && !reflect.DeepEqual(v, base.Field(j).Interface()) {
				t.Errorf("the option for Config.%s also changed Config.%s", field, name)
			}
		}
	}

	if newOptions(nil).node.Metrics == nil {
		t.Error("default options record into no registry")
	}
	if newOptions([]Option{WithoutMetrics()}).node.Metrics != nil {
		t.Error("WithoutMetrics left a registry in the node config")
	}
	if newOptions([]Option{WithMetrics(reg)}).node.Metrics != reg {
		t.Error("WithMetrics' registry did not reach the node config")
	}
}
