from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 run is
# reproducible; no example database is written.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
