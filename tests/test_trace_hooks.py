"""The names the benchmark's traced mode relies on.

bench/spans.py rebinds qdtuner's layer functions and the cli's cmd_*
handlers, and reads grid.active(), grid.dirichlet, the solve report's
iterations, Spectrum.intensities and TuningSolution.iterations and .warnings.
A rename of any of them breaks `bench/run.py --trace 1`; here it fails a test.
"""

import importlib
from pathlib import Path

from qdtuner import cli, control, spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"

COUNTS = {
    "device.active_cells",
    "thermal.unknowns",
    "thermal.operator_nnz",
    "thermal.iterations",
    "spectral.samples",
    "control.align_multi_passes",
    "config.bytes_written",
}


def test_every_traced_layer_records_its_spans_and_counts(configs_dir, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    runs = [
        ["thermal", configs_dir / "device_w320.json", "--dx-um", "0.1", "--power-abs-mw", "0.01"],
        ["sweep", configs_dir / "fig3.json", "--steps", "3"],
        ["tune", configs_dir / "fig4.json"],
        ["tune", configs_dir / "qd_pair.json"],
        ["calibrate", "--anchors-file", configs_dir / "anchors_power.json"],
    ]
    maps = [control.PowerMap(sid, 10.0, 300.0, 4.0) for sid in ("A", "B")]
    targets = [(sid, spectral.QDState(f"QD{sid}", 927.0), 927.5) for sid in ("A", "B")]
    tracer = spans.Tracer()
    with tracer.installed():
        for k, argv in enumerate(runs):
            with tracer.operation(argv[0]):
                assert cli.main([*map(str, argv), "--out", str(tmp_path / str(k))]) == 0
        with tracer.operation("align_multi"):
            assert control.align_multi(maps, None, targets).feasible

    inclusive, _ = tracer.times()
    assert {name for name, *_ in spans._targets()} <= inclusive.keys()
    assert set(tracer.counts) == COUNTS
    assert all(count > 0 for count in tracer.counts.values()), sorted(tracer.counts.items())
