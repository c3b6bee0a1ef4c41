package experiment

import (
	"testing"

	"locsched/internal/cache"
	"locsched/internal/mpsoc"
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
