"""Quickstart: run one experiment and look at the workload it generated.

Builds a small simulated Beowulf cluster, runs the paper's baseline and
wavelet experiments, prints the Table-1 style summary and two figures.

    python examples/quickstart.py
"""

from repro.core import ExperimentRunner, make_figure, render_table1

def main():
    # A 2-node cluster is enough to see every effect; the paper used 16.
    runner = ExperimentRunner(nnodes=2, seed=0)

    print("running the baseline (quiescent system) ...")
    results = {"baseline": runner.run("baseline", duration=600.0)}

    print("running the wavelet decomposition experiment ...")
    results["wavelet"] = runner.run("wavelet")

    print()
    print(render_table1(results))
    print()
    print(make_figure(1, results["baseline"]).render(width=70, height=16))
    print()
    print(make_figure(3, results["wavelet"]).render(width=70, height=16))

    m = results["wavelet"].metrics
    print()
    print(f"wavelet: {m.total_requests} requests over {m.duration:.0f} s, "
          f"{m.read_pct}% reads — the paper's Table 1 reports 49%.")


if __name__ == "__main__":
    main()
