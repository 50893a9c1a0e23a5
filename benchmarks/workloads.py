"""The benchmark's workloads: singlimit commands, their configs and checks.

Each workload stresses a different set of modules (see README.md next to
this file):

  sweep      the paper's experiment: the eps ladder of the empty config, one
             scalar run and four system runs on one shared 601-node matrix
  front      one scalar column on a 2401-node grid, tracked to a wave speed
  snapshots  the system stepper writing 1878 CSV snapshots and an SVG

The inputs are fixed; they do not depend on the benchmark's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from checks import check_report, check_snapshots, check_speed

DT = 0.005  # time.dt of every workload config (the reference default)


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # singlimit arguments before --config and --out
    config: str               # text of the file passed with --config
    writes_out: bool          # the command takes --out DIR
    columns: int              # solution columns advanced per time step
    nodes: int
    steps: int
    output_every: int
    layers: tuple[str, ...]   # traced layers the command must call

    @property
    def node_steps(self) -> int:
        return self.columns * self.nodes * self.steps

    def frame_times(self) -> list[float]:
        """Times of the snapshots a run keeps: every output_every steps and
        the final step."""
        frames = sorted(set(range(0, self.steps + 1, self.output_every)) | {self.steps})
        return [k * DT for k in frames]

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        out = ["--out", str(out_dir)] if self.writes_out else []
        return [*self.command, "--config", str(config_path), *out]

    def check(self, out_dir: Path, stdout: str, reference: dict | None) -> list[str]:
        if self.name == "sweep":
            return check_report(out_dir / "report.csv", reference)
        if self.name == "front":
            return check_speed(stdout, reference)
        return check_snapshots(out_dir, stdout, self.frame_times(), self.nodes, reference)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep", ("converge",), "", True, columns=9, nodes=601, steps=5000,
            output_every=200,
            layers=("model.reaction_rates", "model.limit_reaction",
                    "model.check_assumptions", "solver.solve", "solver.run_system",
                    "solver.run_scalar", "reduction.to_reduced", "reduction.error_norms",
                    "experiments.run_convergence_sweep", "experiments.make_initial_data",
                    "output.write_report", "config.parse_config"),
        ),
        Workload(
            "front", ("wavespeed", "--model", "limit"),
            "time.t_end = 125\ngrid.dx = 0.0125\n", False,
            columns=1, nodes=2401, steps=25000, output_every=200,
            layers=("model.limit_reaction", "solver.solve", "solver.run_scalar",
                    "experiments.estimate_wave_speed", "experiments.make_initial_data",
                    "config.parse_config"),
        ),
        Workload(
            "snapshots", ("simulate", "--model", "system", "--svg"),
            "time.t_end = 125\ntime.output_every = 40\n", True,
            columns=2, nodes=601, steps=25000, output_every=40,
            layers=("model.reaction_rates", "solver.solve", "solver.run_system",
                    "reduction.to_reduced", "experiments.make_initial_data",
                    "output.write_snapshot", "output.write_manifest",
                    "output.write_profiles_svg", "config.parse_config"),
        ),
    )
}

# The same commands at a horizon of well under a second, for the smoke tests.
# The front's speed window and level move inside that horizon.
SMOKE = {
    "sweep": replace(WORKLOADS["sweep"], config="time.t_end = 0.25\ntime.output_every = 10\n",
                     steps=50, output_every=10),
    "front": replace(WORKLOADS["front"],
                     config="time.t_end = 0.5\ngrid.dx = 0.0125\ntime.output_every = 10\n"
                            "experiment.speed_window = 0.25, 0.5\n"
                            "experiment.speed_level = 0.3\n",
                     steps=100, output_every=10),
    "snapshots": replace(WORKLOADS["snapshots"],
                         config="time.t_end = 0.5\ntime.output_every = 40\n", steps=100),
}
