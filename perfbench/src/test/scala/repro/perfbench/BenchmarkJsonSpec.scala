package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** BENCHMARK.json declares the metrics the benchmark prints. */
class BenchmarkJsonSpec extends AnyFunSuite {
  private val json = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def declared(key: String): Seq[(String, String)] =
    json.get(key).elements.asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  test("end-to-end and per-layer metrics match the benchmark's own lists") {
    assert(declared("end_to_end") == BenchMetrics.EndToEnd)
    assert(declared("per_layer") == BenchMetrics.PerLayer)
  }

  test("declared workloads exist") {
    val ws = json.get("workloads").elements.asScala.map(_.get("name").asText).toSeq
    assert(ws.nonEmpty && ws.forall(Workloads.names.contains))
  }

  test("setup_s has the largest bound") {
    val bounds = json.get("end_to_end").elements.asScala.map(m => m.get("name").asText -> m.get("bound").asDouble).toMap
    assert(bounds("setup_s") == bounds.values.max)
  }
}
