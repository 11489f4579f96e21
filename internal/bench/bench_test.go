package bench

import (
	"bytes"
	"testing"

	"repro/internal/ir"
)

func TestAllGeneratorsProduceValidIR(t *testing.T) {
	mods := map[string]*ir.Module{
		"facedet-with":    FaceDetection(WithDirectives()),
		"facedet-without": FaceDetection(WithoutDirectives()),
		"facedet-ni":      FaceDetection(NotInline()),
		"facedet-rep":     FaceDetection(Replication()),
		"digit_spam":      DigitSpam(),
		"bnn_render_of":   BNNRenderFlow(),
	}
	for name, m := range mods {
		if err := ir.Validate(m); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.NumOps() < 100 {
			t.Errorf("%s suspiciously small: %d ops", name, m.NumOps())
		}
	}
}

func TestTrainingModulesSampleBudget(t *testing.T) {
	mods := TrainingModules()
	if len(mods) != 3 {
		t.Fatalf("TrainingModules = %d implementations, want the paper's 3", len(mods))
	}
	total := 0
	for _, m := range mods {
		total += m.NumOps()
	}
	// The paper's dataset holds 8111 samples; ours must stay within a few
	// percent so Table IV is comparable.
	if total < 7700 || total > 8600 {
		t.Errorf("total dataset ops = %d, want ~8111 +/- 5%%", total)
	}
}

func TestInliningGrowsTheDesign(t *testing.T) {
	// The paper: "function inlining increases the complexity in C synthesis
	// and generates a larger design" measured in logic, and collapses the
	// module hierarchy to one function.
	inlined := FaceDetection(WithDirectives())
	hier := FaceDetection(NotInline())
	if len(inlined.LiveFuncs()) != 1 {
		t.Errorf("inlined design has %d live functions", len(inlined.LiveFuncs()))
	}
	if len(hier.LiveFuncs()) < 9 {
		t.Errorf("de-inlined design has only %d live functions", len(hier.LiveFuncs()))
	}
}

func TestDirectiveBundles(t *testing.T) {
	w := WithDirectives()
	if !w.Inline || !w.Pipeline || !w.PartitionComplete || w.Unroll < 2 {
		t.Errorf("WithDirectives = %+v", w)
	}
	wo := WithoutDirectives()
	if wo.Inline || wo.Pipeline || wo.PartitionComplete || wo.Unroll != 1 {
		t.Errorf("WithoutDirectives = %+v", wo)
	}
	ni := NotInline()
	if ni.Inline || !ni.Pipeline {
		t.Errorf("NotInline = %+v", ni)
	}
	rep := Replication()
	if rep.Inline || !rep.ReplicateInputs {
		t.Errorf("Replication = %+v", rep)
	}
}

func TestPartitionDirectiveControlsBanks(t *testing.T) {
	part := FaceDetection(WithDirectives())
	mono := FaceDetection(WithoutDirectives())
	banksOf := func(m *ir.Module) int {
		for _, f := range m.LiveFuncs() {
			for _, a := range f.Arrays {
				if a.Name == "window_buf" {
					return a.Banks
				}
			}
		}
		return -1
	}
	if banksOf(part) != fdWindowWords {
		t.Errorf("partitioned window has %d banks, want %d", banksOf(part), fdWindowWords)
	}
	if banksOf(mono) != 1 {
		t.Errorf("monolithic window has %d banks, want 1", banksOf(mono))
	}
}

func TestReplicationOwnsPrivateCopies(t *testing.T) {
	rep := FaceDetection(Replication())
	private := 0
	for _, f := range rep.LiveFuncs() {
		if f.IsTop {
			continue
		}
		for _, a := range f.Arrays {
			if a.Name == "window_copy" {
				private++
			}
		}
	}
	// One private copy per classifier instance (stage x unroll copy).
	want := fdStages * WithDirectives().Unroll
	if private != want {
		t.Errorf("private window copies = %d, want %d", private, want)
	}
}

func TestUnrollMarksReplicas(t *testing.T) {
	m := FaceDetection(WithDirectives())
	replicas := 0
	for _, o := range m.AllOps() {
		if o.IsReplica() {
			replicas++
		}
	}
	if replicas == 0 {
		t.Fatal("unrolled design has no replica-marked ops")
	}
	frac := float64(replicas) / float64(m.NumOps())
	if frac < 0.3 {
		t.Errorf("replica fraction = %.2f, unexpectedly low for unroll factor %d",
			frac, WithDirectives().Unroll)
	}
}

func TestCatalogCoversGenerators(t *testing.T) {
	cat := Catalog()
	for _, name := range []string{"face_detection", "digit_spam", "bnn_render_of"} {
		gen, ok := cat[name]
		if !ok {
			t.Fatalf("catalog missing %q", name)
		}
		if m := gen(WithoutDirectives()); m == nil || m.NumOps() == 0 {
			t.Fatalf("catalog generator %q broken", name)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := FaceDetection(WithDirectives())
	b := FaceDetection(WithDirectives())
	if a.NumOps() != b.NumOps() {
		t.Fatal("generator not deterministic in op count")
	}
	ao, bo := a.AllOps(), b.AllOps()
	for i := range ao {
		if ao[i].Kind != bo[i].Kind || ao[i].Bitwidth != bo[i].Bitwidth {
			t.Fatalf("op %d differs across generations", i)
		}
	}
}

func TestSourceLocationsAssigned(t *testing.T) {
	for _, m := range TrainingModules() {
		missing := 0
		for _, o := range m.AllOps() {
			if o.Src.IsZero() {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("%s: %d ops without source locations", m.Name, missing)
		}
	}
}

func TestIndividualApplications(t *testing.T) {
	for name, gen := range map[string]func() *ir.Module{
		"digit_recognition": DigitRecognition,
		"spam_filtering":    SpamFiltering,
		"bnn":               BNN,
		"rendering3d":       Rendering3D,
		"optical_flow":      OpticalFlow,
	} {
		m := gen()
		if err := ir.Validate(m); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.NumOps() < 50 {
			t.Errorf("%s suspiciously small: %d ops", name, m.NumOps())
		}
		if len(m.LiveFuncs()) != 2 {
			t.Errorf("%s: %d live functions, want top + app", name, len(m.LiveFuncs()))
		}
	}
	if len(Catalog()) != 8 {
		t.Errorf("catalog has %d entries, want 8", len(Catalog()))
	}
}

func TestBenchmarksRoundTripThroughTextIR(t *testing.T) {
	for _, m := range TrainingModules() {
		var buf bytes.Buffer
		if err := ir.WriteText(&buf, m); err != nil {
			t.Fatalf("%s: write: %v", m.Name, err)
		}
		back, err := ir.ParseText(&buf)
		if err != nil {
			t.Fatalf("%s: parse: %v", m.Name, err)
		}
		if back.NumOps() != m.NumOps() {
			t.Errorf("%s: ops %d != %d after text round trip", m.Name, back.NumOps(), m.NumOps())
		}
		if len(back.LiveFuncs()) != len(m.LiveFuncs()) {
			t.Errorf("%s: functions changed", m.Name)
		}
	}
}
