// Fixture: det-rng-entropy — every banned entropy source in one file. These
// files are lint inputs only; they are never compiled (and are excluded from
// repo-wide scans by the engine's default excludes).
namespace fixture {

unsigned careless_seed() {
  std::random_device rd;
  std::srand(static_cast<unsigned>(time(nullptr)));
  return rd() ^ static_cast<unsigned>(std::rand());
}

// Outside every function body: a class member and a declaration parameter.
struct Jitter {
  std::random_device source;
};

unsigned stamp(std::chrono::system_clock::time_point at);

}  // namespace fixture
