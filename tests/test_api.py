import re
from pathlib import Path

import cvp

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AnnealSchedule", "BoundsReport", "CertificateReport", "ChainMinimizer",
    "Classification", "DensityMeasure", "HeatKernelBound", "ManifoldModel",
    "MergeResult", "ScanRow", "WeightedMeasure", "action",
    "anneal", "antipodal_obstruction", "bounds_report", "certify",
    "circle_chain_minimizer", "circle_m0", "circle_tau_m", "circle_uniform",
    "d_kernel", "density_action", "flag_gt_threshold", "flag_negative_witness",
    "flag_point", "gram_min_eigenvalue", "gt_obstruction_conflict",
    "icosahedron", "kernel_potential", "lagrangian", "load_measure",
    "load_packing", "measure_from_dict", "measure_to_dict", "merge_clusters",
    "nu0_lower_bound", "nu0_monte_carlo", "octahedron", "optimal_weights_info",
    "optimize_heat_params", "sample_uniform",
    "spectral_closed_form", "tammes_upper_bound", "tau_scan", "theta_max",
    "three_band_density", "volume_action", "write_scan_csv",
]


def test_public_names_are_pinned():
    # the submodules are importable as cvp.<module> but not exported
    assert sorted(cvp.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 48


def test_readme_api_block_uses_public_names():
    text = README.read_text()
    block = text.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bcvp\.([A-Za-z_]\w*)", block))
    assert used and used <= set(cvp.__all__)
