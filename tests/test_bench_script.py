"""scripts/bench.py's acceptance arithmetic on two fabricated BENCH
documents."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(label, values):
    """A BENCH document with one workload, "w", whose run on seed 71 + k
    has the metrics values[k]."""
    runs = [{"seed": 71 + k, "metrics": metrics} for k, metrics in enumerate(values)]
    return label, {"label": label, "workloads": {"w": {"runs": runs}}}


END_TO_END = [
    {"name": "lat", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "rss", "better": "lower", "bound": 0.1},
]


def test_acceptance_lines():
    base = [dict(lat=10.0, rate=20.0, rss=100.0), dict(lat=11.0, rate=21.0, rss=100.0),
            dict(lat=12.0, rate=22.0, rss=100.0), dict(lat=13.0, rate=23.0, rss=100.0),
            dict(lat=14.0, rate=24.0, rss=100.0)]
    # lat: lower on four seeds, median 8 against 12, base IQR 13.5 - 10.5 = 3;
    # rate: higher on one seed only, median 21 against 22 (-4.5 %); rss: +20 % > 10 %
    change = [dict(lat=7.0, rate=19.0, rss=120.0), dict(lat=8.0, rate=20.0, rss=120.0),
              dict(lat=8.0, rate=21.0, rss=120.0), dict(lat=13.0, rate=22.0, rss=120.0),
              dict(lat=9.0, rate=25.0, rss=120.0)]
    lines = _bench().acceptance_lines([_doc("parent", base), _doc("change", change)],
                                      END_TO_END)
    assert lines == [
        "w lat: parent 12 [10.5, 13.5]; change 8 [7.5, 11] (-33.3 %), better on 4 of 5 "
        "seeds, gap 4 > parent IQR 3: yes, worse: no",
        "w rate: parent 22 [20.5, 23.5]; change 21 [19.5, 23.5] (-4.5 %), better on 1 of 5 "
        "seeds, gap 1 > parent IQR 3: no, worse: within bound 0.25: yes",
        "w rss: parent 100 [100, 100]; change 120 [120, 120] (+20.0 %), better on 0 of 5 "
        "seeds, gap 20 > parent IQR 0: yes, worse: within bound 0.1: no",
    ]
