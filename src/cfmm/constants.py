"""Physical constants shared across the package."""

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Thermal noise density at 290 K, dBm/Hz.
THERMAL_NOISE_DBM_PER_HZ = -174.0

# Carrier frequency of the sounder, Hz: path phases and free-space losses
# are referenced to it.
BAND_CENTER_HZ = 3.5e9
