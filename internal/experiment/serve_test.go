package experiment

import (
	"testing"

	"locsched/internal/cache"
	"locsched/internal/mpsoc"
	"locsched/internal/workload"
)

// TestConfigDigestPinned: ConfigDigest keys every server cache entry and
// every persisted store record, so its bytes must not drift. The two
// pinned values cover the default machine and a heterogeneous write-back
// one; a change here orphans every stored result.
func TestConfigDigestPinned(t *testing.T) {
	het := DefaultConfig()
	het.Machine.Cores = 16
	het.Machine.WritePolicy = cache.WriteBack
	het.Machine.WritebackPenalty = 40
	het.Machine.Machine = mpsoc.Machine{SpeedClasses: "1,3", Topology: mpsoc.TopoMesh, HopPenalty: 16}
	for name, tc := range map[string]struct {
		cfg  Config
		want string
	}{
		"default":          {DefaultConfig(), "c3303f48db01728b90ddcd798f572b992df8721a4562e53be7580c33a25f774e"},
		"hetero-writeback": {het, "13e2fc713a933ec2b7549063363420b66249ed5b38d7a382f7f74eff7bbdb15c"},
	} {
		if got := ConfigDigest(tc.cfg); got != tc.want {
			t.Errorf("%s: ConfigDigest = %s, want %s", name, got, tc.want)
		}
	}
}

// TestContentKeyPinned: ContentKey is the workload half of every server
// cache key and every persisted store record, so like ConfigDigest its
// bytes must not drift. The pins cover one Table 1 application and one
// |T|=3 mix at the 32-byte alignment; a change here orphans every stored
// result.
func TestContentKeyPinned(t *testing.T) {
	p := workload.Params{Scale: 2}
	app, err := workload.Build("MxM", 0, p)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := workload.BuildMany(3, p)
	if err != nil {
		t.Fatal(err)
	}
	mix, mixArrays, err := CombineApps(apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		key  func() (string, error)
		want string
	}{
		{"MxM", func() (string, error) { return ContentKey(app.Graph, app.Arrays, 32) },
			"afb3d026f3ed3456ec670400fca9db36ab272235c895a2e7ba6fbb79028a288f+0b0465b6444145663cb266915017572466987a7a6d419a99d4f2d73ead129387"},
		{"|T|=3", func() (string, error) { return ContentKey(mix, mixArrays, 32) },
			"16dcc6df189e8b52a3d9ece5c43958f42dc3ef53c5e74ab41b493abf32ac1ca7+59246e6a277cc03889ee76b07b8a636647faf41e50834b20cb6705efbd17df1b"},
	} {
		got, err := tc.key()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: ContentKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
