// Planar/spherical geometry helpers for road networks and GPS trajectories.
#pragma once

#include <cmath>

namespace rl4oasd::roadnet {

/// WGS84 coordinate (degrees).
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;
};

/// Great-circle distance in meters (haversine).
double HaversineMeters(const LatLon& a, const LatLon& b);

/// Fast equirectangular approximation of distance in meters; accurate to a
/// fraction of a percent at city scale, used on hot paths (map matching).
double ApproxDistanceMeters(const LatLon& a, const LatLon& b);

/// The point-independent half of a projection onto segment (a, b): the
/// equirectangular frame anchored at `a` (cos of the mean latitude, the
/// local segment vector and its squared length). Hot paths build it once
/// per segment and project many points through it.
struct SegmentFrame {
  LatLon a;
  LatLon b;
  double cos_lat = 1.0;
  double vx = 0.0;
  double vy = 0.0;
  double len2 = 0.0;
};

SegmentFrame MakeSegmentFrame(const LatLon& a, const LatLon& b);

/// Projects point p onto the frame's segment. Returns the clamped
/// interpolation parameter t in [0, 1]; *closest receives the projected
/// coordinate.
double ProjectOntoSegment(const LatLon& p, const SegmentFrame& f,
                          LatLon* closest);

/// Same, building the frame of (a, b) first; bit-identical to projecting
/// through a stored MakeSegmentFrame(a, b).
double ProjectOntoSegment(const LatLon& p, const LatLon& a, const LatLon& b,
                          LatLon* closest);

/// Distance in meters from p to the frame's segment.
double PointToSegmentMeters(const LatLon& p, const SegmentFrame& f);

/// Distance in meters from p to segment (a, b).
double PointToSegmentMeters(const LatLon& p, const LatLon& a, const LatLon& b);

/// Linear interpolation between two coordinates.
inline LatLon Lerp(const LatLon& a, const LatLon& b, double t) {
  return {a.lat + (b.lat - a.lat) * t, a.lon + (b.lon - a.lon) * t};
}

}  // namespace rl4oasd::roadnet
