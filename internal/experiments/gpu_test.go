package experiments

import "testing"

// TestDeviceRows checks the whole-device experiment's invariants: one
// row per device workload, and a device never finishes faster than one
// SM running 1/16th of the grid.
func TestDeviceRows(t *testing.T) {
	r := NewRunner()
	rows, err := Device(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(deviceApps) {
		t.Fatalf("%d rows, want %d", len(rows), len(deviceApps))
	}
	for _, row := range rows {
		if row.DeviceCycles < row.SMCycles {
			t.Errorf("%s: device (%d cycles) beat a single SM's share (%d)",
				row.App, row.DeviceCycles, row.SMCycles)
		}
		if row.Slowdown < 1 || row.Instrs == 0 || row.MemRequests == 0 {
			t.Errorf("%s: implausible row %+v", row.App, row)
		}
	}
}
