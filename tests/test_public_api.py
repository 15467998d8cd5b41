"""The package-level public API stays importable and complete."""

import repro


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_everything_in_all_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_core_entry_points(self):
        assert callable(repro.detect_violations)
        assert callable(repro.detect_md_violations)

    def test_detector_classes_exported(self):
        for cls_name in (
            "VerticalIncrementalDetector",
            "HorizontalIncrementalDetector",
            "VerticalBatchDetector",
            "HorizontalBatchDetector",
            "ImprovedVerticalBatchDetector",
            "ImprovedHorizontalBatchDetector",
            "IncrementalMDDetector",
        ):
            assert isinstance(getattr(repro, cls_name), type)

    def test_workload_generators_exported(self):
        assert isinstance(repro.TPCHGenerator(seed=1).relation(5), repro.Relation)
        assert isinstance(repro.DBLPGenerator(seed=1).relation(5), repro.Relation)
        assert len(repro.EmpWorkload().relation()) == 5

    def test_no_duplicate_names_in_all(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_engine_entry_points(self):
        assert callable(repro.session)
        assert callable(repro.register_detector)
        assert callable(repro.register_partitioner)
        for name in ("DetectionSession", "DetectionReport", "StrategyRegistry"):
            assert isinstance(getattr(repro, name), type)

    def test_registry_covers_paper_algorithms(self):
        names = repro.DEFAULT_REGISTRY.detector_names()
        for name in ("incVer", "batVer", "ibatVer", "incHor", "batHor", "ibatHor"):
            assert name in names
