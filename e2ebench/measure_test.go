package main

import "testing"

func TestQuietKeepsWindowsNearTheQuietestAndAtLeastAThird(t *testing.T) {
	win := func(steal int64) window { return window{cost: counters{ticks: 100, steal: steal}} }
	for _, tc := range []struct {
		name   string
		steals []int64
		want   int
	}{
		{"quiet host keeps every window", []int64{0, 1, 2, 1, 0, 2}, 6},
		{"burst of steal drops the loud windows", []int64{0, 1, 30, 35, 2, 40}, 3},
		{"loud host keeps the quietest third", []int64{30, 40, 35, 45, 50, 38}, 2},
	} {
		ws := make([]window, len(tc.steals))
		for i, s := range tc.steals {
			ws[i] = win(s)
		}
		got := quiet(ws)
		if len(got) != tc.want {
			t.Errorf("%s: kept %d windows, want %d", tc.name, len(got), tc.want)
		}
		for _, w := range got {
			if w.stolen() > got[0].stolen()+stealSlack && len(got) > (len(ws)+2)/3 {
				t.Errorf("%s: kept a window with %.2f stolen", tc.name, w.stolen())
			}
		}
	}
}
