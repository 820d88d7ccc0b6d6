"""The three benchmark workloads: CLI arguments, sizes and correctness gates.

Each workload is a frozen dataclass.  ``FULL`` holds the sizes the benchmark
measures and ``TINY`` the sizes the self-check runs.  A gate returns ``None``
when the output is correct and a one-line reason when it is not.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Seed whose output digests were captured at the parent commit (digests.json).
DEFAULT_SEED = 1


@dataclass(frozen=True)
class EnsembleScalar:
    """Monte Carlo ensemble of the additive-noise scalar test problem.

    Short memory per path (N=256, d=1): per-step Python overhead, one
    generate_path per path, the fork pool and the Welford reduction take the
    time.  This is where path batching shows a gain.  200 paths keep one
    repeat near 2 s, so a 30 s run takes the median of about 14 repeats.
    """

    label: str = "full"
    paths: int = 200
    alpha: float = 0.75
    h: float = 0.00390625
    T: float = 1.0
    sigma0: float = 1.0
    name = "ensemble_scalar"
    dim = 1
    suffix = ".json"

    @property
    def num_steps(self) -> int:
        return round(self.T / self.h)

    def node_updates(self) -> int:
        return self.paths * self.num_steps

    def argv(self, seed: int, output: str, root: Path) -> list:
        return [
            "ensemble", "--system", "linear_test", "--lam", "0",
            "--sigma0", repr(self.sigma0), "--alpha", repr(self.alpha),
            "--h", repr(self.h), "--T", repr(self.T), "--paths", str(self.paths),
            "--format", "json", "--seed", str(seed), "-o", output,
        ]

    def expected_variance(self) -> float:
        """sigma^2 T^(2a-1) / ((2a-1) Gamma(a)^2), the stochastic-integral law."""
        a = self.alpha
        return self.sigma0**2 * self.T ** (2 * a - 1) / ((2 * a - 1) * math.gamma(a) ** 2)

    def check_variance(self, observed: float):
        expected = self.expected_variance()
        tol = 4.0 * math.sqrt(2.0 / self.paths) * expected  # 4 Monte Carlo std errors
        if not abs(observed - expected) <= tol:
            return (f"terminal variance {observed!r} is more than 4 standard errors "
                    f"({tol:.4g}) from {expected!r}")
        return None

    def gate(self, output: Path):
        summary = json.loads(output.read_text(encoding="utf-8"))
        if summary["num_paths"] != self.paths:
            return f"num_paths {summary['num_paths']} != {self.paths}"
        return self.check_variance(summary["terminal"]["variance"][0])


@dataclass(frozen=True)
class LongNL:
    """One long Newton-Leipnik path on the fig1 recipe (3 Wiener channels).

    The O(N^2) history sums of the stepper are the largest single cost at
    N=20000 (about 45% of the time), and the CSV writer emits about 1.6 MB.  Batching and the pool
    are bypassed.  One repeat takes near 2.7 s, so a 30 s run takes the
    median of about 10 repeats.  The traced run also solves fig1 separately
    on the prefix grids of probe_steps steps.
    """

    label: str = "full"
    T: float = 100.0
    h: float = 0.005        # the h of configs/fig1.cfg, used only to size the gate
    radius: float = 10.0    # bounded-attractor radius of acceptance criterion c07
    config: str = "configs/fig1.cfg"
    probe_steps: tuple = (1000, 10000, 40000)
    name = "long_nl"
    dim = 3
    suffix = ".csv"

    @property
    def num_steps(self) -> int:
        return round(self.T / self.h)

    def node_updates(self) -> int:
        return self.num_steps

    def argv(self, seed: int, output: str, root: Path) -> list:
        return [
            "simulate", "--config", str(root / self.config), "--T", repr(self.T),
            "--seed", str(seed), "-o", output,
        ]

    def gate(self, output: Path):
        rows = 0
        max_abs = 0.0
        with open(output, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                rows += 1
                if rows == 1:
                    continue  # header t,y1,y2,y3
                values = line.split(",")[1:]
                max_abs = max(max_abs, max(abs(float(v)) for v in values))
        if rows != self.num_steps + 2:
            return f"{rows} non-comment lines, expected {self.num_steps + 2}"
        if not max_abs <= self.radius:
            return f"max |y| = {max_abs!r} exceeds radius {self.radius}"
        return None


@dataclass(frozen=True)
class PicardNL:
    """Picard contraction diagnostic on Newton-Leipnik (200 serial paths).

    The only workload that enters the picard module: per-node right-hand-side
    loops and short kernel sums.
    """

    label: str = "full"
    paths: int = 200
    iterations: int = 6
    alpha: float = 0.93
    h: float = 0.005
    T: float = 0.5
    mu: float = 0.1
    name = "picard_nl"
    dim = 3
    suffix = ".csv"

    @property
    def num_steps(self) -> int:
        return round(self.T / self.h)

    def node_updates(self) -> int:
        return self.paths * self.iterations * self.num_steps

    def argv(self, seed: int, output: str, root: Path) -> list:
        return [
            "picard", "--system", "newton_leipnik", "--alpha", repr(self.alpha),
            "--h", repr(self.h), "--T", repr(self.T), "--mu", repr(self.mu),
            "--paths", str(self.paths), "--iterations", str(self.iterations),
            "--seed", str(seed), "-o", output,
        ]

    def check_distances(self, distances):
        d = list(distances)
        if len(d) != self.iterations - 1:
            return f"{len(d)} distances, expected {self.iterations - 1}"
        if not all(a > b for a, b in zip(d, d[1:])):
            return f"distances not strictly decreasing: {d}"
        if not d[-1] / d[0] < 0.01:
            return f"d_{len(d)}/d_1 = {d[-1] / d[0]!r} is not < 0.01"
        return None

    def gate(self, output: Path):
        distances = []
        for line in output.read_text(encoding="utf-8").splitlines():
            if line.startswith("#") or line == "k,d_k":
                continue
            distances.append(float(line.split(",")[1]))
        return self.check_distances(distances)


FULL = {w.name: w for w in (EnsembleScalar(), LongNL(), PicardNL())}

TINY = {
    "ensemble_scalar": EnsembleScalar(label="tiny", paths=200, h=0.015625),
    "long_nl": LongNL(label="tiny", T=5.0, probe_steps=(1000,)),
    "picard_nl": PicardNL(label="tiny", paths=100, T=0.1),
}

_CLASSES = {cls.name: cls for cls in (EnsembleScalar, LongNL, PicardNL)}


def to_json(spec) -> str:
    """Serialise a spec so a child process can rebuild it with from_json."""
    return json.dumps({"name": spec.name, "fields": spec.__dict__})


def from_json(text: str):
    data = json.loads(text)
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in data["fields"].items()}
    return _CLASSES[data["name"]](**fields)
