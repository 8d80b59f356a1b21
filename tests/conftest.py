from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# The sbnrg critical config whose alpha_c tests/test_cli.py freezes; other
# tests rerun it at other thread counts or on perturbed chains.
CRITICAL_PAYLOAD = {
    "model": {"delta": 3e-5},
    "nrg": {"n_s": 60, "n_b": 6, "n_iter": 60, "n_star": 65},
    "sweep": {"parameter": "alpha",
              "grid": {"values": [0.55, 0.65, 0.75, 0.85]}},
}
