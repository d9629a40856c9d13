"""Figures 8 & 9: full-system validation against four real devices."""

from repro.experiments import fig08_09_validation as experiment

from benchmarks.conftest import run_experiment


def test_fig08_09_validation(benchmark):
    result = run_experiment(benchmark, experiment)
    # the paper reports 72-96% bandwidth accuracy and 64-96% latency
    # accuracy; require every device to reach the bottom of those bands
    for device, summary in result["summary"].items():
        assert summary["bandwidth_accuracy"] >= 0.72, (
            f"{device}: bandwidth accuracy "
            f"{summary['bandwidth_accuracy']:.2f} below band")
        assert summary["latency_accuracy"] >= 0.64, (
            f"{device}: latency accuracy "
            f"{summary['latency_accuracy']:.2f} below band")

    # trend check: bandwidth must rise with depth and flatten (sublinear)
    for device, per_pattern in result["devices"].items():
        curve = per_pattern["seqread"]
        depths = sorted(curve)
        first = curve[depths[0]]["bandwidth_mbps"]
        last = curve[depths[-1]]["bandwidth_mbps"]
        mid = curve[depths[len(depths) // 2]]["bandwidth_mbps"]
        assert last > first, f"{device}: bandwidth does not grow with depth"
        assert last < 1.5 * mid, f"{device}: seqread never saturates"
