#include "sched/svg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace sdem {
namespace {

constexpr int kWidth = 900;       ///< px, the whole figure
constexpr int kLaneHeight = 26;   ///< px per lane

/// Deterministic pleasant color per task id (golden-angle hue walk).
std::string task_color(int id) {
  const double hue = std::fmod(137.50776405003785 * id, 360.0);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "hsl(%.1f, 62%%, 58%%)", hue);
  return buf;
}

}  // namespace

std::string render_svg(const Schedule& sched, const SvgOptions& opts) {
  std::ostringstream os;
  const int cores = std::max(sched.cores_used(), 1);
  const int lanes = cores + (opts.show_memory ? 1 : 0);
  const int margin_left = 70, margin_top = opts.title.empty() ? 12 : 36;
  const int height = margin_top + lanes * (kLaneHeight + 6) + 28;
  const int plot_w = kWidth - margin_left - 12;

  const double t0 = sched.start_time();
  const double t1 = std::max(sched.end_time(), t0 + 1e-9);
  auto x_of = [&](double t) {
    return margin_left + (t - t0) / (t1 - t0) * plot_w;
  };
  auto y_of = [&](int lane) {
    return margin_top + lane * (kLaneHeight + 6);
  };

  char buf[512];
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kWidth
     << "\" height=\"" << height << "\" font-family=\"sans-serif\" "
     << "font-size=\"11\">\n";
  if (!opts.title.empty()) {
    os << "<text x=\"" << margin_left << "\" y=\"20\" font-size=\"14\">"
       << opts.title << "</text>\n";
  }

  // Lane backgrounds + labels.
  for (int c = 0; c < cores; ++c) {
    std::snprintf(buf, sizeof(buf),
                  "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
                  "fill=\"#f2f2f2\"/>\n<text x=\"6\" y=\"%d\">core %d</text>\n",
                  margin_left, y_of(c), plot_w, kLaneHeight,
                  y_of(c) + kLaneHeight - 8, c);
    os << buf;
  }

  // Segments.
  for (const auto& seg : sched.segments()) {
    const double x = x_of(seg.start);
    const double w = std::max(x_of(seg.end) - x, 1.0);
    std::snprintf(buf, sizeof(buf),
                  "<rect x=\"%.2f\" y=\"%d\" width=\"%.2f\" height=\"%d\" "
                  "fill=\"%s\" stroke=\"#444\" stroke-width=\"0.4\">"
                  "<title>task %d: [%.4f, %.4f] s @ %.0f MHz</title>"
                  "</rect>\n",
                  x, y_of(seg.core), w, kLaneHeight,
                  task_color(seg.task_id).c_str(), seg.task_id, seg.start,
                  seg.end, seg.speed);
    os << buf;
    if (w > 24.0) {  // wide enough to label with the task id
      std::snprintf(buf, sizeof(buf),
                    "<text x=\"%.2f\" y=\"%d\" fill=\"#fff\">%d</text>\n",
                    x + 4.0, y_of(seg.core) + kLaneHeight - 8,
                    seg.task_id);
      os << buf;
    }
  }

  // Memory lane.
  if (opts.show_memory) {
    const int lane = cores;
    std::snprintf(buf, sizeof(buf),
                  "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
                  "fill=\"#fbfbfb\" stroke=\"#ccc\" stroke-width=\"0.5\"/>"
                  "\n<text x=\"6\" y=\"%d\">MEM</text>\n",
                  margin_left, y_of(lane), plot_w, kLaneHeight,
                  y_of(lane) + kLaneHeight - 8);
    os << buf;
    for (const auto& b : sched.memory_busy()) {
      const double x = x_of(b.lo);
      const double w = std::max(x_of(b.hi) - x, 1.0);
      std::snprintf(buf, sizeof(buf),
                    "<rect x=\"%.2f\" y=\"%d\" width=\"%.2f\" height=\"%d\" "
                    "fill=\"#666\"/>\n",
                    x, y_of(lane), w, kLaneHeight);
      os << buf;
    }
  }

  // Time axis.
  const int axis_y = y_of(lanes) + 4;
  std::snprintf(buf, sizeof(buf),
                "<text x=\"%d\" y=\"%d\">%.4f s</text>\n"
                "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">%.4f s</text>\n",
                margin_left, axis_y + 12, t0, margin_left + plot_w,
                axis_y + 12, t1);
  os << buf;

  os << "</svg>\n";
  return os.str();
}

}  // namespace sdem
