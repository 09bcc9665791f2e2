#include "roadnet/geometry.h"

#include <algorithm>

namespace rl4oasd::roadnet {

namespace {
constexpr double kEarthRadiusMeters = 6371000.0;
constexpr double kDegToRad = 3.14159265358979323846 / 180.0;
}  // namespace

double HaversineMeters(const LatLon& a, const LatLon& b) {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusMeters * std::asin(std::min(1.0, std::sqrt(h)));
}

double ApproxDistanceMeters(const LatLon& a, const LatLon& b) {
  const double mean_lat = 0.5 * (a.lat + b.lat) * kDegToRad;
  const double dx = (b.lon - a.lon) * kDegToRad * std::cos(mean_lat);
  const double dy = (b.lat - a.lat) * kDegToRad;
  return kEarthRadiusMeters * std::sqrt(dx * dx + dy * dy);
}

SegmentFrame MakeSegmentFrame(const LatLon& a, const LatLon& b) {
  // An equirectangular local frame anchored at `a`.
  SegmentFrame f;
  f.a = a;
  f.b = b;
  const double mean_lat = 0.5 * (a.lat + b.lat) * kDegToRad;
  f.cos_lat = std::cos(mean_lat);
  f.vx = (b.lon - a.lon) * f.cos_lat;
  f.vy = (b.lat - a.lat);
  f.len2 = f.vx * f.vx + f.vy * f.vy;
  return f;
}

double ProjectOntoSegment(const LatLon& p, const SegmentFrame& f,
                          LatLon* closest) {
  const double px = (p.lon - f.a.lon) * f.cos_lat;
  const double py = (p.lat - f.a.lat);
  double t = 0.0;
  if (f.len2 > 0.0) {
    t = (px * f.vx + py * f.vy) / f.len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  if (closest != nullptr) *closest = Lerp(f.a, f.b, t);
  return t;
}

double ProjectOntoSegment(const LatLon& p, const LatLon& a, const LatLon& b,
                          LatLon* closest) {
  return ProjectOntoSegment(p, MakeSegmentFrame(a, b), closest);
}

double PointToSegmentMeters(const LatLon& p, const SegmentFrame& f) {
  LatLon closest;
  ProjectOntoSegment(p, f, &closest);
  return ApproxDistanceMeters(p, closest);
}

double PointToSegmentMeters(const LatLon& p, const LatLon& a,
                            const LatLon& b) {
  return PointToSegmentMeters(p, MakeSegmentFrame(a, b));
}

}  // namespace rl4oasd::roadnet
