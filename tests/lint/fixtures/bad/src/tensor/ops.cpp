// Fixture: arena-kernel-heap — scratch taken from the heap instead of the
// Workspace arena, in a file named like a kernel hot path.
namespace fixture {

void convolve(const float* src, float* dst, int n) {
  std::vector<float> scratch(static_cast<std::size_t>(n));
  float* extra = new float[16];
  for (int i = 0; i < n; ++i) scratch.push_back(src[i]);
  dst[0] = scratch[0] + extra[0];
  delete[] extra;
}

// Outside every function body, and still heap storage in a hot-path file.
std::vector<float> g_scratch;

}  // namespace fixture
