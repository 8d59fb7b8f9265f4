import sys

from hypothesis import settings

# exact fractions get big; printing them should never be the thing that fails
sys.set_int_max_str_digits(2_000_000)

settings.register_profile("exact", deadline=None, max_examples=200)
settings.load_profile("exact")
