// expect: unit-suffix-double-param:3
//
// Raw unit-suffixed double parameters in a header: each must take the
// matching strong type. Fields, locals, and annotated exceptions stay legal.
#pragma once

namespace fixture {

struct Config {
  double carrier_hz = 18500.0;  // field: raw storage is the config layer
  double range_m = 100.0;       // field
};

double absorption(double range_m, double f_hz);   // 2 findings
void settle(double dwell_s);                      // 1 finding

// vab-lint: allow(unit-suffix-double-param) boundary shim kept raw for ABI
double legacy_gain(double level_db);

inline double helper() {
  double local_db = 3.0;  // local: terminated by ';', never a parameter
  return local_db;
}

}  // namespace fixture
